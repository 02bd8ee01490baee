"""The generic relational schema model (target of RIDL-M).

Relations, attributes, named domains, classical constraints (keys,
foreign keys, CHECKs, NOT NULL) and the paper's extended view
constraints — the "lossless rules" of the schema transformations.
Each constraint class is the one definition of its kind: it renders
its own pseudo-SQL, writes its own checker query and computes its own
in-memory verdict.
"""

from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    NotNullConstraint,
    PrimaryKey,
    RelationalConstraint,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import (
    And,
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
    and_,
    dependent_existence,
    equal_existence,
    or_,
    render_literal,
)
from repro.relational.schema import Attribute, Domain, Relation, RelationalSchema

__all__ = [
    "And",
    "Attribute",
    "CandidateKey",
    "CheckConstraint",
    "Compare",
    "Domain",
    "EqualityViewConstraint",
    "ForeignKey",
    "InValues",
    "IsNull",
    "Not",
    "NotNull",
    "NotNullConstraint",
    "Or",
    "Predicate",
    "PrimaryKey",
    "Relation",
    "RelationalConstraint",
    "RelationalSchema",
    "SelectSpec",
    "SubsetViewConstraint",
    "and_",
    "dependent_existence",
    "equal_existence",
    "or_",
    "render_literal",
]
