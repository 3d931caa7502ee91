"""Per-host kernel-selection table: measured crossovers, persisted once.

Two families of backend decisions are host-dependent:

- the scatter-add backward backends (``ufunc.at`` vs dense one-hot gemm vs
  flat bincount — :func:`repro.tensor.ops._scatter_add_rows`), and
- the minibatch forward kernel (padded ``[B, L_max, d]`` grids vs flat CSR
  segment ops) the minibatch path picks from a batch's measured padding
  waste (:meth:`repro.core.model.WidenModel.forward_batch`).

``python -m repro tune-kernels`` micro-sweeps both on the current machine
(:mod:`repro.tensor.tuning`) and persists the recommendations as a
versioned JSON table under ``~/.cache/repro/kernel_table.json`` (honoring
``XDG_CACHE_HOME``; the ``REPRO_KERNEL_TABLE`` env var overrides the
path).  ``repro.tensor`` auto-applies the table at import, so every
process on the host — trainer, serving shards, benchmarks — runs with the
measured crossovers without any per-run setup.

Precedence: explicit environment variables (``REPRO_SCATTER_*``,
``REPRO_SPARSE_MIN_WASTE``) always win over the table; the table wins
over the built-in defaults.  Unreadable, malformed, or version-mismatched
tables are ignored (the defaults are safe everywhere) — a stale table
must never break import.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional

from repro.tensor import ops

KERNEL_TABLE_VERSION = 1

ENV_TABLE_PATH = "REPRO_KERNEL_TABLE"
ENV_SPARSE_MIN_WASTE = "REPRO_SPARSE_MIN_WASTE"

# Padding-waste fraction at which the minibatch path switches from the
# padded grids to the CSR kernels.  The default is conservative: gemm
# over modest padding beats the segment ops' extra index work, so only
# visibly skewed batches route sparse until a host sweep says otherwise.
_FORWARD_DEFAULTS = {"sparse_min_waste": 0.5}


def _forward_from_env() -> tuple:
    selection = dict(_FORWARD_DEFAULTS)
    env_keys = set()
    raw = os.environ.get(ENV_SPARSE_MIN_WASTE)
    if raw is not None:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_SPARSE_MIN_WASTE} must be a float, got {raw!r}"
            ) from exc
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{ENV_SPARSE_MIN_WASTE} must be in [0, 1], got {value}"
            )
        selection["sparse_min_waste"] = value
        env_keys.add("sparse_min_waste")
    return selection, env_keys


_FORWARD_SELECTION, _FORWARD_ENV_KEYS = _forward_from_env()


def get_forward_selection() -> Dict[str, float]:
    """The active forward kernel-selection thresholds (a copy)."""
    return dict(_FORWARD_SELECTION)


def set_forward_selection(
    sparse_min_waste: Optional[float] = None,
) -> Dict[str, float]:
    """Override the forward-selection thresholds; returns the active values."""
    if sparse_min_waste is not None:
        value = float(sparse_min_waste)
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"sparse_min_waste must be in [0, 1], got {value}"
            )
        _FORWARD_SELECTION["sparse_min_waste"] = value
    return get_forward_selection()


def host_fingerprint() -> Dict[str, Any]:
    """What the table was measured on — informational, never enforced.

    Crossovers drift with BLAS builds and core counts, not with hostnames;
    refusing a copied table would only force needless re-sweeps.
    """
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def table_path(path=None) -> Path:
    """Resolve the table location: explicit arg > env var > cache default."""
    if path is not None:
        return Path(path)
    env = os.environ.get(ENV_TABLE_PATH)
    if env:
        return Path(env)
    cache = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache) if cache else Path.home() / ".cache"
    return base / "repro" / "kernel_table.json"


def load_table(path=None) -> Optional[Dict[str, Any]]:
    """Read and validate the table; ``None`` on absent/garbage/mismatch."""
    resolved = table_path(path)
    try:
        with open(resolved) as handle:
            table = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(table, dict):
        return None
    if table.get("version") != KERNEL_TABLE_VERSION:
        return None
    return table


def save_table(table: Dict[str, Any], path=None) -> Path:
    resolved = table_path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    with open(resolved, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return resolved


def apply_table(table: Dict[str, Any]) -> Dict[str, Any]:
    """Install a table's thresholds, skipping anything the env pinned.

    Returns what was actually applied, keyed by family — empty when every
    value was env-pinned or absent.
    """
    applied: Dict[str, Any] = {}
    scatter = table.get("scatter")
    if isinstance(scatter, dict):
        env_keys = ops.get_scatter_env_keys()
        kwargs = {
            key: int(scatter[key])
            for key in ("sparse_min_rows", "dense_max_cells")
            if key in scatter and key not in env_keys
        }
        if kwargs:
            ops.set_scatter_thresholds(**kwargs)
            applied["scatter"] = kwargs
    forward = table.get("forward")
    if (
        isinstance(forward, dict)
        and "sparse_min_waste" in forward
        and "sparse_min_waste" not in _FORWARD_ENV_KEYS
    ):
        value = float(forward["sparse_min_waste"])
        set_forward_selection(sparse_min_waste=value)
        applied["forward"] = {"sparse_min_waste": value}
    return applied


def auto_apply(path=None) -> Optional[Dict[str, Any]]:
    """Import-time hook: apply the host table if present and valid."""
    table = load_table(path)
    if table is None:
        return None
    try:
        return apply_table(table)
    except (TypeError, ValueError):
        # A hand-edited table with out-of-range values must not break
        # import; the defaults are safe everywhere.
        return None


def build_table(dim: int = 64, repeats: int = 30) -> Dict[str, Any]:
    """Run both host sweeps and assemble a persistable table."""
    from repro.tensor import tuning

    scatter_report = tuning.run_tuning(dim=dim, repeats=repeats)
    forward_rows = tuning.sweep_forward_crossover(dim=dim, repeats=repeats)
    return {
        "version": KERNEL_TABLE_VERSION,
        "host": host_fingerprint(),
        "dim": dim,
        "repeats": repeats,
        "scatter": scatter_report["recommended"],
        "forward": {
            "sparse_min_waste": tuning.recommend_forward(forward_rows)
        },
        "sweeps": {
            "scatter": {
                "sparse_sweep": scatter_report["sparse_sweep"],
                "dense_sweep": scatter_report["dense_sweep"],
            },
            "forward": forward_rows,
        },
    }


def run_kernel_tuning(
    dim: int = 64,
    repeats: int = 30,
    apply: bool = True,
    write: bool = True,
    path=None,
) -> Dict[str, Any]:
    """The ``tune-kernels`` entry point: sweep, persist, apply.

    One invocation measures the scatter-add crossovers *and* the
    padded-vs-sparse forward crossover, writes the
    versioned per-host table, and installs the thresholds in this process
    (env-pinned values stay untouched).
    """
    table = build_table(dim=dim, repeats=repeats)
    report: Dict[str, Any] = {"table": table, "path": None, "applied": None}
    if write:
        report["path"] = str(save_table(table, path))
    if apply:
        report["applied"] = apply_table(table)
    return report


def format_table_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_kernel_tuning` report."""
    table = report["table"]
    lines = [
        "kernel-selection table "
        f"(version {table['version']}, dim {table['dim']})",
        f"  host: {table['host']}",
        f"  scatter: {table['scatter']}",
        f"  forward: {table['forward']}",
    ]
    for row in table["sweeps"]["forward"]:
        winner = "sparse" if row["sparse_s"] < row["padded_s"] else "padded"
        lines.append(
            f"    waste={row['waste']:.2f}  padded={row['padded_s']:.6f}s  "
            f"sparse={row['sparse_s']:.6f}s  -> {winner}"
        )
    from repro.tensor.tuning import ENV_VARS

    lines.append("  to pin the scatter thresholds from the environment instead:")
    lines += [
        f"    export {ENV_VARS[key]}={value}"
        for key, value in sorted(table["scatter"].items())
    ]
    if report["path"]:
        lines.append(f"  wrote {report['path']}")
    if report["applied"]:
        lines.append(f"  applied {report['applied']}")
    elif report["applied"] is not None:
        lines.append("  applied nothing (env-pinned)")
    return "\n".join(lines)
