"""Declarative specs: one grammar, one parser, one error (docs/API.md, "Specs").

A spec is ``None | name | {"name": name, <param>: value}`` (a builder from
its family's registry) or ``{<key>: value}`` (one builder's arguments). The
builder's signature says which keys exist and which are required; its
annotations (``Annotated[<scalar>, Check]`` for a range) what each value
must be. Anything else is one :class:`SpecError`.
"""

from __future__ import annotations

import functools
import inspect
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (Annotated, Any, Callable, Dict, Literal, Optional, Tuple, Union,
                    get_args, get_origin, get_type_hints)


class SpecError(ValueError):
    """A spec that does not parse: ``<family>.<key path>: <what is wrong>``."""

    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}" if path else detail)
        self.path = path
        self.detail = detail


def expected(path: str, what: str, got: Any) -> SpecError:
    return SpecError(path, f"expected {what}, got {got!r}")


@contextmanager
def within(prefix: str):
    """Errors raised inside are at key path ``prefix`` (paths join outward)."""
    try:
        yield
    except SpecError as error:
        dot = "." if prefix and error.path[:1] not in ("", "[") else ""
        raise SpecError(prefix + dot + error.path, error.detail) from None


#: The range of an ``Annotated`` scalar: what it reads as, and its test.
Check = namedtuple("Check", "what test")


PositiveInt = Annotated[int, Check("a positive int", lambda v: v > 0)]
NonNegativeInt = Annotated[int, Check("a non-negative int", lambda v: v >= 0)]
PositiveFloat = Annotated[float, Check("a positive number", lambda v: v > 0)]
Probability = Annotated[float, Check("a number in [0, 1]", lambda v: 0 <= v <= 1)]

_SCALARS = {  # type -> (what it reads as, its test)
    int: ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("a bool", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("a dict", lambda v: isinstance(v, dict)),
}


def describe(hint) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return args[1].what
    if origin is Literal:
        return f"one of {sorted(args)}"
    if origin is tuple:
        return f"a list of {args[0].__name__} specs"
    return _SCALARS.get(origin or hint, ("anything",))[0]


def value(hint, got: Any) -> Any:
    """``got`` checked against ``hint``; dataclass dicts are built."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[...]
        return None if got is None else value(args[0], got)
    if is_dataclass(hint):
        return got if isinstance(got, hint) else build(hint, got)
    if origin is tuple and isinstance(got, (list, tuple)):
        items = []
        for n, item in enumerate(got):
            with within(f"[{n}]"):
                items.append(value(args[0], item))
        return tuple(items)
    if origin is Annotated:
        fits = _SCALARS[args[0]][1](got) and args[1].test(got)
    elif origin in (Literal, tuple):
        fits = origin is Literal and isinstance(got, str) and got in args
    else:
        fits = _SCALARS.get(origin or hint, (None, lambda v: True))[1](got)
    if not fits:
        raise expected("", describe(hint), got)
    return got


@functools.lru_cache(maxsize=None)
def _signature(builder) -> Tuple[Dict[str, inspect.Parameter], Dict[str, Any]]:
    plain_class = isinstance(builder, type) and not is_dataclass(builder)
    hints = get_type_hints(builder.__init__ if plain_class else builder, include_extras=True)
    return dict(inspect.signature(builder).parameters), hints


def arguments(builder, given: Any, what: Optional[str] = None, skip=()) -> Dict[str, Any]:
    """``given`` checked as ``builder``'s keyword arguments, but for those
    in ``skip`` (only the given keys: the defaults stay the builder's)."""
    what = what or builder.__name__
    if not isinstance(given, dict):
        raise expected("", f"a {what} dict", given)
    parameters, hints = _signature(builder)
    names = [name for name in parameters if name not in skip]
    for key in given:
        if key not in names:
            raise SpecError(str(key), f"unknown {what} option; available: {sorted(names)}"
                            if names else f"{what} takes no parameters")
    checked = {}
    for name in names:
        if name in given:
            with within(name):
                checked[name] = value(hints.get(name, Any), given[name])
        elif parameters[name].default is inspect.Parameter.empty:
            raise SpecError(name, f"expected {describe(hints.get(name, Any))}, "
                                  f"got no {name!r} key")
    return checked


def build(builder, given: Any, what: Optional[str] = None):
    return builder(**arguments(builder, given, what))


def check(obj) -> None:
    """Check a dataclass's fields (the ``__post_init__`` of a spec also built directly)."""
    hints = _signature(type(obj))[1]
    for each in fields(obj):
        if each.init:
            with within(each.name):
                object.__setattr__(obj, each.name, value(hints[each.name],
                                                         getattr(obj, each.name)))


@dataclass(frozen=True)
class Named:
    """A parsed named spec: the builder, by name, and its checked params."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    builder: Callable = field(default=None, compare=False, repr=False)

    def build(self, *args):
        """A fresh object (per switch, per fault firing) from the spec."""
        return self.builder(*args, **dict(self.params))

    def to_spec(self):
        return {"name": self.name, **dict(self.params)} if self.params else self.name


def named(family: str, spec: Any, builders: Dict[str, Callable], what: Optional[str] = None,
          skip=(), key: str = "name", default: Optional[str] = None) -> Optional[Named]:
    """Parse ``None | name | {key: name, params}``; a :class:`Named` passes through."""
    if spec is None or isinstance(spec, Named):
        return spec
    with within(family):
        if not isinstance(spec, (str, dict)):
            raise expected("", f"a declarative spec: None, a name or a {key!r} dict", spec)
        params = {} if isinstance(spec, str) else dict(spec)
        name = spec if isinstance(spec, str) else params.pop(key, default)
        if name is None:
            raise SpecError(key, f"expected one of {sorted(builders)}, got no {key!r} key")
        if not isinstance(name, str) or name not in builders:
            raise SpecError(key, f"unknown {what or family.replace('_', ' ')} {name!r}; "
                                 f"available: {sorted(builders)}")
        return Named(name, tuple(arguments(builders[name], params, name, skip).items()),
                     builders[name])
