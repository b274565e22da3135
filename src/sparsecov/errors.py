"""Exception types shared across the package, and the JSON readers that raise them."""

from dataclasses import field, fields


class SparseCovError(Exception):
    """Base class for all package-specific errors."""


class AsymmetryError(SparseCovError, ValueError):
    """Input matrix is too far from symmetric to repair by averaging."""


class EigenError(SparseCovError, RuntimeError):
    """Symmetric eigensolver failed to converge."""


class NormOrderError(SparseCovError, ValueError):
    """Operator norm requested for an order without an exact formula."""


class DomainError(SparseCovError, ValueError):
    """A scalar map or divergence was evaluated outside its domain."""


class NotPSDError(DomainError):
    """Matrix expected to be positive semidefinite is not."""


class ConfigError(SparseCovError, ValueError):
    """Invalid or infeasible configuration parameters."""


class StructureError(SparseCovError, ValueError):
    """Object violates a required combinatorial or structural constraint."""


class BudgetError(SparseCovError, RuntimeError):
    """A computation would exceed its budget: the memory a grid cell needs,
    or the objects an exact enumeration would visit."""


class DivergenceError(SparseCovError, ArithmeticError):
    """A chi-square envelope or integral is not finite."""


class SchemaError(SparseCovError, ValueError):
    """Config object or record set does not fit its schema."""


def _check_keys(obj, allowed, where: str) -> None:
    """Raise SchemaError unless ``obj`` is a mapping whose keys all lie in
    ``allowed``; ``where`` names the object's place in its config."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise SchemaError(
            f"unknown key {unknown[0]!r} in {where}; expected keys {sorted(allowed)}"
        )


def _required(obj: dict, key: str, where: str):
    """``obj[key]``, or SchemaError naming the key's path ``where.key`` when
    the config leaves it out."""
    if key not in obj:
        raise SchemaError(f"{where}.{key} is required")
    return obj[key]


def _check_str(value, where: str) -> str:
    """Return ``value`` if it is a JSON string, else raise SchemaError naming ``where``."""
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string, got {value!r}")
    return value


def _check_int(value, where: str) -> int:
    """Return ``value`` as an int if it is a JSON integer (an int, or a float
    with no fractional part), else raise SchemaError naming ``where``; a bool
    is not an integer here."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    return value


def _check_real(value, where: str) -> float:
    """Return ``value`` as a float if it is a JSON number (an int or a float),
    else raise SchemaError naming ``where``; a bool or a numeric string is not
    a number here.  Range checks, finiteness included, stay with the reader."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_bool(value, where: str) -> bool:
    """Return ``value`` if it is a JSON boolean, else raise SchemaError naming ``where``."""
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be true or false, got {value!r}")
    return value


def _json_field(read, **kwargs):
    """A dataclass field whose JSON value :func:`_from_json` passes through
    ``read(value, where)``; ``kwargs`` go to :func:`dataclasses.field`."""
    return field(metadata={"read": read}, **kwargs)


def _from_json(cls, obj, where: str):
    """The dataclass ``cls`` built from the JSON object ``obj``, whose keys
    must be field names of ``cls``; ``where`` names the object's place in its
    config in every message, such as ``estimators[1]``.

    Each key present is read by its field's :func:`_json_field` reader, or
    passed as given for ``__post_init__`` to check, and each key absent takes
    its dataclass default.
    """
    readers = {f.name: f.metadata.get("read") for f in fields(cls)}
    _check_keys(obj, readers, where)
    return cls(**{
        key: value if readers[key] is None else readers[key](value, f"{where}.{key}")
        for key, value in obj.items()
    })


class FitError(SparseCovError, ValueError):
    """Regression input is degenerate or under-determined."""


class CellError(SparseCovError, RuntimeError):
    """Too many replicate failures inside one simulation cell."""
