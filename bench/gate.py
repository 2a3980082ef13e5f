"""Correctness gate for sweep records, run outside the timed region.

A point passes when it produced exactly one record per configured scheme
and every record satisfies the invariants below.  Dual records are checked
against their own warm starts, recomputed from the channel with
``evaluate_dual``, so a faster but looser search cannot pass unnoticed.
"""

from cas.channel import alphas_from_channel, generate_rayleigh
from cas.dual import evaluate_dual
from cas.experiment import system_for
from cas.waterfilling import uniform_allocation, waterfill_capacity

_WARM_STARTS = {
    "sensing": ("sensing",),
    "communication": ("communication",),
    "best": ("sensing", "communication"),
}


def _warm_start(kind, sys_cfg, alphas):
    if kind == "sensing":
        return uniform_allocation(sys_cfg.p_total, sys_cfg.n_tx)
    return waterfill_capacity(sys_cfg.p_total, alphas).alloc


def record_violations(cfg, rec) -> list:
    """Invariants one record of ``cfg`` breaks, as messages."""
    sys_cfg = system_for(cfg, rec.snr_c_db)
    ceiling = sys_cfg.m_s * sys_cfg.n_tx * sys_cfg.var_eta
    out = []
    if rec.d_sc != rec.d_s + rec.d_c:
        out.append(f"d_sc {rec.d_sc!r} != d_s + d_c {rec.d_s + rec.d_c!r}")
    if not 0.0 <= rec.d_sc <= ceiling:
        out.append(f"d_sc {rec.d_sc!r} outside [0, {ceiling!r}]")
    if rec.flagged:
        out.append("flagged")
    if rec.scheme == "dual":
        if not rec.converged:
            out.append("dual search not converged")
        ch = generate_rayleigh(rec.seed, sys_cfg.m_c, sys_cfg.n_tx)
        alphas = alphas_from_channel(ch, sys_cfg)
        for kind in _WARM_STARTS[cfg.dual_init]:
            start = evaluate_dual(_warm_start(kind, sys_cfg, alphas), sys_cfg, alphas)
            if rec.d_sc > start.d_sc:
                out.append(f"dual d_sc {rec.d_sc!r} worse than its {kind} "
                           f"warm start {start.d_sc!r}")
    return out


def point_violations(cfg, records) -> dict:
    """Map each failing (seed, snr_c_db) point of ``cfg`` to its violations.

    Points missing from ``records`` fail, as do records for points or
    schemes the configuration does not ask for.
    """
    expected = ["dual", "separated"] if cfg.scheme == "both" else [cfg.scheme]
    by_point = {(int(seed), float(snr)): []
                for snr in cfg.snr_c_db_list for seed in cfg.seeds}
    unexpected = {}
    for rec in records:
        key = (int(rec.seed), float(rec.snr_c_db))
        if key in by_point:
            by_point[key].append(rec)
        else:
            unexpected.setdefault(key, []).append(f"unexpected {rec.scheme} record")
    bad = dict(unexpected)
    for key, recs in by_point.items():
        msgs = []
        schemes = sorted(r.scheme for r in recs)
        if schemes != expected:
            msgs.append(f"records {schemes}, expected {expected}")
        for rec in recs:
            msgs.extend(record_violations(cfg, rec))
        if msgs:
            bad[key] = msgs
    return bad
