"""The Binary Relationship Model (BRM / NIAM) — the conceptual layer.

This package implements section 2 of the paper: object types (LOT,
NOLOT, LOT-NOLOT), binary fact types with roles, sublink types, the
constraint taxonomy, schemas, populations (database states) and
reference schemes (naming conventions).
"""

from repro.brm.builder import SchemaBuilder
from repro.brm.constraints import (
    Constraint,
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
    items_of,
)
from repro.brm.datatypes import (
    DataType,
    DataTypeKind,
    boolean,
    char,
    date,
    integer,
    numeric,
    real,
    smallint,
    varchar,
)
from repro.brm.facts import FIRST, SECOND, FactType, Role, RoleId
from repro.brm.objects import ObjectKind, ObjectType, lot, lot_nolot, nolot
from repro.brm.population import Population, Violation
from repro.brm.reference import (
    LexicalLeaf,
    ReferenceComponent,
    ReferenceResolver,
    ReferenceScheme,
    candidate_schemes,
)
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef, SublinkType

__all__ = [
    "FIRST",
    "SECOND",
    "BinarySchema",
    "Constraint",
    "ConstraintItem",
    "DataType",
    "DataTypeKind",
    "EqualityConstraint",
    "ExclusionConstraint",
    "FactType",
    "FrequencyConstraint",
    "LexicalLeaf",
    "ObjectKind",
    "ObjectType",
    "Population",
    "ReferenceComponent",
    "ReferenceResolver",
    "ReferenceScheme",
    "Role",
    "RoleId",
    "SchemaBuilder",
    "SublinkRef",
    "SublinkType",
    "SubsetConstraint",
    "TotalUnionConstraint",
    "UniquenessConstraint",
    "ValueConstraint",
    "Violation",
    "boolean",
    "candidate_schemes",
    "char",
    "date",
    "integer",
    "items_of",
    "lot",
    "lot_nolot",
    "nolot",
    "numeric",
    "real",
    "smallint",
    "varchar",
]
