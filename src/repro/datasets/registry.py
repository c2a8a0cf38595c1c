"""Dataset registry: Table II profiles + ``load_dataset`` entry point.

``PROFILES`` records, per dataset, the paper's tuple count and overall /
per-type error rates (Table II). Callers choose the tuple count, scaled
down from the paper's purely for runtime (the experiment sizes live in
:mod:`repro.exp.tables`) — error *rates* are kept.
Per-type rates in Table II overlap (Flights' RV equals its total rate
because rule violations co-occur with other types there); we treat the
overall ``Err.%`` as authoritative and split it across types
proportionally to the reported per-type rates.

Tax is the paper's scalability dataset (200 k tuples, 0.11 % errors). At
repro scale 0.11 % of cells would round to almost no errors, so Tax uses a
1 % rate here; it is only used for token/runtime scaling, never Table III.
"""
from __future__ import annotations

from repro.datasets.base import Dataset
from repro.datasets.schemas import GENERATORS
from repro.errors.inject import inject_errors

PROFILES: dict[str, dict] = {
    "hospital": {
        "paper_n": 1000, "paper_attrs": 20,
        "error_rate": 0.0482,
        "type_weights": {"MV": 0.0, "PV": 2.75, "T": 2.71, "O": 2.98, "RV": 2.05},
    },
    "flights": {
        "paper_n": 2376, "paper_attrs": 7,
        "error_rate": 0.3451,
        "type_weights": {"MV": 16.22, "PV": 20.12, "T": 13.92, "O": 17.52, "RV": 34.51},
    },
    "beers": {
        "paper_n": 2410, "paper_attrs": 11,
        "error_rate": 0.1298,
        "type_weights": {"MV": 0.90, "PV": 9.14, "T": 2.43, "O": 1.09, "RV": 1.12},
    },
    "rayyan": {
        "paper_n": 1000, "paper_attrs": 11,
        "error_rate": 0.2919,
        "type_weights": {"MV": 15.31, "PV": 9.42, "T": 3.23, "O": 8.47, "RV": 11.40},
    },
    "billionaire": {
        "paper_n": 2615, "paper_attrs": 22,
        "error_rate": 0.0984,
        "type_weights": {"MV": 2.41, "PV": 3.14, "T": 1.35, "O": 3.80, "RV": 0.56},
    },
    "movies": {
        "paper_n": 7390, "paper_attrs": 17,
        "error_rate": 0.0497,
        "type_weights": {"MV": 2.22, "PV": 2.32, "T": 0.03, "O": 2.64, "RV": 0.0},
    },
    "tax": {
        "paper_n": 200_000, "paper_attrs": 22,
        "error_rate": 0.01,  # paper: 0.11 % — raised so scaled data has errors
        "type_weights": {"MV": 0.01, "PV": 3.36, "T": 0.04, "O": 0.08, "RV": 0.03},
    },
}

TABLE3_DATASETS = ["hospital", "flights", "beers", "rayyan", "billionaire", "movies"]


def load_dataset(name: str, n: int, seed: int = 0) -> Dataset:
    """Generate dataset ``name`` at ``n`` tuples."""
    if name not in PROFILES:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(PROFILES)}")
    prof = PROFILES[name]
    clean, meta = GENERATORS[name](n, seed=seed)
    dirty, etypes = inject_errors(
        clean,
        meta,
        error_rate=prof["error_rate"],
        type_weights=prof["type_weights"],
        seed=seed + 1000,
    )
    return Dataset(
        name=name,
        dirty=dirty,
        clean=clean,
        fds=meta["fds"],
        patterns=meta["patterns"],
        kb=meta["kb"],
        numeric_attrs=meta["numeric_attrs"],
        nadeef_attrs=meta.get("nadeef_attrs"),
        error_types=etypes,
    )
