"""Polymorphic record calculus with extensible records: parsing, kinding,
type normalization, kinded unification, type inference, a derivation
validator, and a small evaluator."""

from .derivation import Derivation, Judgment, KindingClaim
from .infer import FreshSupply, InferFailure, InferResult, infer, instantiate
from .checker import check, validate
from .interp import EvalError, eval_term
from .kinding import has_kind, wf_kind_assignment, wf_type
from .normalize import equiv, normalize, reduce_once
from .parser import ParseError, parse_env_file, parse_term, parse_type, pretty
from .subst import KindedSubstitution, closure, compose, generic_instance, respects
from .syntax import base_of, eftv, ftv
from .unify import UnificationError, unify

__all__ = [
    "Derivation",
    "EvalError",
    "FreshSupply",
    "InferFailure",
    "InferResult",
    "Judgment",
    "KindedSubstitution",
    "KindingClaim",
    "ParseError",
    "UnificationError",
    "base_of",
    "check",
    "closure",
    "compose",
    "eftv",
    "equiv",
    "eval_term",
    "ftv",
    "generic_instance",
    "has_kind",
    "infer",
    "instantiate",
    "normalize",
    "parse_env_file",
    "parse_term",
    "parse_type",
    "pretty",
    "reduce_once",
    "respects",
    "unify",
    "validate",
    "wf_kind_assignment",
    "wf_type",
]
