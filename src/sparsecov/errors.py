"""Exception types, one per way the code handles an error, and the JSON
readers that raise them."""

from dataclasses import MISSING, field, fields


class SparseCovError(Exception):
    """Base class for all package-specific errors."""


class EigenError(SparseCovError, RuntimeError):
    """Symmetric eigensolver failed to converge."""


class DomainError(SparseCovError, ValueError):
    """A computation left its domain: a loss, divergence or chi-square that is
    not finite, a matrix not PSD, a failed grid cell or a degenerate rate fit."""


class ConfigError(SparseCovError, ValueError):
    """Invalid or infeasible input: a parameter, a matrix too asymmetric to
    average, a norm order with no exact formula, or a malformed family member."""


class BudgetError(SparseCovError, RuntimeError):
    """A computation would exceed its budget: the memory a grid cell needs,
    or the objects an exact enumeration would visit."""


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


def _from_json(cls, obj, where: str, label: str | None = None):
    """The dataclass ``cls`` built from the JSON object ``obj``, whose keys
    must be field names of ``cls``.

    ``where`` is the object's path in its config, such as ``estimators[1]``,
    or empty for the config itself, and each field is named by its path
    under it, such as ``estimators[1].gamma`` or ``seed``; ``label`` names
    the object in a message about its keys, ``where`` by default.  The fields
    are read in their order: each key present by its field's
    :func:`_json_field` reader, or passed as given for ``__post_init__`` to
    check; each key absent takes its dataclass default, and a field with no
    default raises SchemaError, such as ``truth.band is required``.
    """
    _check_keys(obj, [f.name for f in fields(cls)], label or where)
    values = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in obj:
            read = f.metadata.get("read")
            values[f.name] = obj[f.name] if read is None else read(obj[f.name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(f"{path} is required")
    return cls(**values)
