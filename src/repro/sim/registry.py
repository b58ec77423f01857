"""Policy registry: named read-retry policies, discoverable by the session API.

The registry replaces the hardcoded policy tuples the seed carried around
(``FIGURE14_POLICIES`` and friends).  Policies self-register with the
:func:`register_policy` decorator — :mod:`repro.core.policies` registers the
paper's six SSD configurations at import time — and third-party policies
plug in the same way:

>>> from repro.sim import register_policy
>>> from repro.core.policies import ReadRetryPolicy
>>> @register_policy(tags=("custom",))
... class MyPolicy(ReadRetryPolicy):
...     name = "MyPolicy"
...     def read_breakdown(self, steps, page_type, condition):
...         return self.latency_model.baseline(steps, page_type)

Registrations carry *tags* so experiment harnesses can ask for the policy
suite of a figure (``registry.names(tag="fig14")``) instead of hardcoding a
tuple; lookup is case-insensitive and a duplicate name is an error unless
``overwrite=True`` is passed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple


class PolicyLookupError(ValueError):
    """Raised when a policy name is not in the registry."""


class DuplicatePolicyError(ValueError):
    """Raised when a name is registered twice without overwrite."""


@dataclass
class PolicyRegistration:
    """One registry entry: how to build a policy and how it is addressed."""

    name: str
    factory: Callable
    tags: Tuple[str, ...] = ()
    order: int = 0
    doc: str = ""

    def build(self, timing=None, rpt=None, **kwargs):
        return self.factory(timing=timing, rpt=rpt, **kwargs)


def _class_factory(policy_cls):
    def factory(timing=None, rpt=None, **kwargs):
        return policy_cls(timing=timing, rpt=rpt, **kwargs)

    return factory


class PolicyRegistry:
    """A case-insensitive mapping from policy names to factories."""

    def __init__(self):
        self._entries: Dict[str, PolicyRegistration] = {}
        self._order = 0

    # -- registration ---------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable,
        *,
        tags: Iterable[str] = (),
        doc: str = "",
        overwrite: bool = False,
    ) -> PolicyRegistration:
        """Register ``factory`` under ``name``.

        :param factory: callable accepting ``timing=`` and ``rpt=`` keyword
            arguments (plus any policy-specific keywords) and returning a
            policy instance.
        :raises DuplicatePolicyError: if the name is taken and ``overwrite``
            is False.
        """
        if not name or not name.strip():
            raise ValueError("policy name must be a non-empty string")
        name = name.strip()
        key = self._key(name)
        previous = self._entries.get(key)
        if previous is not None and not overwrite:
            raise DuplicatePolicyError(
                f"policy name {key!r} already registered "
                f"(for {previous.name!r}); pass overwrite=True to replace it"
            )
        registration = PolicyRegistration(
            name=name,
            factory=factory,
            tags=tuple(tags),
            doc=doc,
            order=previous.order if previous is not None else self._order,
        )
        if previous is None:
            self._order += 1
        self._entries[key] = registration
        return registration

    def register_policy(
        self,
        name: Optional[str] = None,
        *,
        tags: Iterable[str] = (),
        overwrite: bool = False,
    ):
        """Class decorator form of :meth:`register`.

        The policy name defaults to the class's ``name`` attribute; the
        class's docstring becomes the registry ``doc``.
        """

        def decorator(policy_cls):
            policy_name = name or getattr(policy_cls, "name", None)
            if not policy_name or policy_name == "abstract":
                raise ValueError(
                    f"{policy_cls.__name__} needs a 'name' attribute (or an "
                    "explicit register_policy(name=...))"
                )
            self.register(
                policy_name,
                _class_factory(policy_cls),
                tags=tags,
                doc=(policy_cls.__doc__ or "").strip().splitlines()[0]
                if policy_cls.__doc__
                else "",
                overwrite=overwrite,
            )
            return policy_cls

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests)."""
        del self._entries[self._key(self.entry(name).name)]

    # -- lookup ---------------------------------------------------------------
    @staticmethod
    def _key(name: str) -> str:
        return name.strip().lower()

    def entry(self, name: str) -> PolicyRegistration:
        entry = self._entries.get(self._key(name))
        if entry is None:
            raise PolicyLookupError(f"unknown policy {name!r}; available: {sorted(self.names())}")
        return entry

    def canonical_name(self, name: str) -> str:
        """The display name a differently-cased name maps to."""
        return self.entry(name).name

    def create(self, name: str, timing=None, rpt=None, **kwargs):
        """Instantiate the policy registered under ``name``."""
        return self.entry(name).build(timing=timing, rpt=rpt, **kwargs)

    def names(self, tag: Optional[str] = None) -> Tuple[str, ...]:
        """Registered display names (registration order), optionally by tag."""
        entries = sorted(self._entries.values(), key=lambda entry: entry.order)
        if tag is not None:
            entries = [entry for entry in entries if tag in entry.tags]
        return tuple(entry.name for entry in entries)

    def tags(self) -> Tuple[str, ...]:
        """Every tag any registration carries, sorted."""
        seen = set()
        for entry in self._entries.values():
            seen.update(entry.tags)
        return tuple(sorted(seen))

    def suite(
        self, names: Optional[Iterable[str]] = None, timing=None, rpt=None
    ) -> Dict[str, object]:
        """Instantiate several policies sharing one timing model and RPT.

        Mirrors the seed's ``policy_suite``: the first policy that needs a
        Read-timing Parameter Table builds it, and the rest share it.
        """
        shared_rpt = rpt
        suite: Dict[str, object] = {}
        for name in names if names is not None else self.names():
            policy = self.create(name, timing=timing, rpt=shared_rpt)
            if getattr(policy, "uses_reduced_timing", False) and shared_rpt is None:
                shared_rpt = policy.rpt
            suite[self.canonical_name(name)] = policy
        return suite

    # -- dunder sugar ---------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return self._key(str(name)) in self._entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolicyRegistry({', '.join(self.names())})"


#: The process-wide default registry the session API and the experiment
#: harnesses consult.  ``repro.core.policies`` populates it at import time.
DEFAULT_REGISTRY = PolicyRegistry()


def register_policy(
    name: Optional[str] = None,
    *,
    tags: Iterable[str] = (),
    overwrite: bool = False,
):
    """Decorator registering a policy class in the default registry."""
    return DEFAULT_REGISTRY.register_policy(name, tags=tags, overwrite=overwrite)


def default_registry() -> PolicyRegistry:
    """The default registry, with the built-in policies loaded."""
    # Importing the module runs its @register_policy decorators.
    import repro.core.policies  # noqa: F401

    return DEFAULT_REGISTRY
