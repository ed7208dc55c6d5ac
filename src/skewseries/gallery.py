"""Named built-in rings and automorphisms for batch runs and tests."""

from __future__ import annotations

import re
from functools import lru_cache

from .rings import (
    FiniteRing,
    RingAut,
    cyclic_ring,
    identity_automorphism,
    inner_automorphism,
    matrix_ring,
    product_ring,
    swap_automorphism,
    units,
    upper_triangular_ring,
)

MAX_CYCLIC = 64

_SPECIAL_BUILDERS = {
    "M2F2": lambda: matrix_ring(cyclic_ring(2), 2),
    "T2F2": lambda: upper_triangular_ring(cyclic_ring(2), 2),
    "F2xF2": lambda: product_ring(cyclic_ring(2), cyclic_ring(2)),
    "F2xF3": lambda: product_ring(cyclic_ring(2), cyclic_ring(3)),
}


@lru_cache(maxsize=None)
def gallery_ring(name: str) -> FiniteRing:
    """Look up a built-in ring by a name ``gallery_names()`` lists: Z1..Z64,
    written without leading zeros, M2F2, T2F2, F2xF2, F2xF3.  Any other
    name raises KeyError, so each ring has one name and one cached
    instance."""
    if name in _SPECIAL_BUILDERS:
        return _SPECIAL_BUILDERS[name]()
    m = re.fullmatch(r"Z([1-9][0-9]*)", name)
    if m:
        n = int(m.group(1))
        if n <= MAX_CYCLIC:
            return cyclic_ring(n)
        raise KeyError(f"cyclic gallery rings stop at Z{MAX_CYCLIC}")
    raise KeyError(f"unknown gallery ring: {name}")


def gallery_names() -> list[str]:
    return [f"Z{n}" for n in range(1, MAX_CYCLIC + 1)] + sorted(_SPECIAL_BUILDERS)


def named_automorphism(ring: FiniteRing, spec: str) -> RingAut:
    """Resolve an automorphism by name: identity, swap, or inner:<unit index>."""
    if spec == "identity":
        return identity_automorphism(ring)
    if spec == "swap":
        return swap_automorphism(ring)
    m = re.fullmatch(r"inner:(\d+)", spec)
    if m:
        return inner_automorphism(ring, int(m.group(1)))
    raise KeyError(f"unknown automorphism name: {spec}")


@lru_cache(maxsize=None)
def first_nontrivial_inner(name: str) -> str:
    """Name of the lowest-index unit whose conjugation is not the identity."""
    ring = gallery_ring(name)
    for u in units(ring):
        if not inner_automorphism(ring, u).is_identity():
            return f"inner:{u}"
    raise KeyError(f"{name} has no nontrivial inner automorphism")


def available_automorphisms(name: str) -> list[str]:
    """Automorphism names offered for a gallery ring."""
    out = ["identity"]
    if name == "F2xF2":
        out.append("swap")
    ring = gallery_ring(name)
    for u in units(ring):
        if not inner_automorphism(ring, u).is_identity():
            out.append(f"inner:{u}")
    return out


def list_gallery() -> list[dict]:
    """Catalog entries: name, size, automorphism names (groups kept small)."""
    entries = []
    for name in gallery_names():
        entry: dict = {"name": name}
        if name.startswith("Z"):
            entry["size"] = int(name[1:])
            entry["automorphisms"] = ["identity"]
        else:
            ring = gallery_ring(name)
            entry["size"] = ring.size
            entry["automorphisms"] = available_automorphisms(name)
        entries.append(entry)
    return entries


# The default batch of (ring name, automorphism name) contexts the test
# harnesses sweep.  All rings here have at most 16 elements.
STANDARD_CONTEXTS: tuple[tuple[str, str], ...] = (
    ("Z2", "identity"),
    ("Z3", "identity"),
    ("Z4", "identity"),
    ("Z5", "identity"),
    ("Z6", "identity"),
    ("Z7", "identity"),
    ("Z8", "identity"),
    ("Z12", "identity"),
    ("F2xF2", "identity"),
    ("F2xF2", "swap"),
    ("F2xF3", "identity"),
    ("T2F2", "identity"),
    ("M2F2", "identity"),
)


def standard_contexts() -> list[tuple[FiniteRing, RingAut, str, str]]:
    """Materialized standard contexts plus one nontrivial inner for M2F2 and
    T2F2, each as (ring, generator automorphism, ring name, action name)."""
    out = []
    for ring_name, aut_name in STANDARD_CONTEXTS:
        ring = gallery_ring(ring_name)
        out.append((ring, named_automorphism(ring, aut_name), ring_name, aut_name))
    for ring_name in ("M2F2", "T2F2"):
        aut_name = first_nontrivial_inner(ring_name)
        ring = gallery_ring(ring_name)
        out.append((ring, named_automorphism(ring, aut_name), ring_name, aut_name))
    return out

