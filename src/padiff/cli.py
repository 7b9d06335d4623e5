"""Command line front end for the workbench.

Subcommands mirror the library stages: solve, h0 and growth read
horizontal sections, radii and fprofile measure convergence radii,
construct-l builds the solvable submodule witness, verify-dwork and
verify-conjecture check the growth bounds, and corpus runs the bundled
suite against its pinned invariants.

Exit codes: 0 all PASS, 1 any FAIL, 2 any INCONCLUSIVE without a FAIL,
3 usage or parse errors.  Reports are JSON with sorted keys; repeated
runs with the same inputs differ only in the timestamp field.  Radii
appear as {"base_p_exponent": "<rational>"} and floats as decimal
strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction

from padiff import corpus
from padiff.config import WorkbenchConfig
from padiff.modfile import ModfileError, _entry_to_json, parse_module
from padiff.pipeline import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    WitnessError,
    construct_submodule,
    growth_order,
    verify_conjecture,
    verify_dwork_bound,
)
from padiff.radii import RadiusWorkbench


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


# ----------------------------------------------------------------------
# serialization helpers


def _rad(x) -> dict | None:
    if x is None:
        return None
    return {"base_p_exponent": str(Fraction(x))}


def _dec(x) -> str | None:
    if x is None:
        return None
    return repr(float(x))


def _poly_str(series, terms: int = 4) -> str:
    parts = []
    for k, c in enumerate(series.coeffs):
        if c.is_zeroish:
            continue
        val = str(c.exact) if c.is_exact else str(c)
        parts.append(val if k == 0 else "%s*t^%d" % (val, k))
        if len(parts) == terms:
            parts.append("...")
            break
    return " + ".join(parts) if parts else "0"


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _emit(args, doc: dict, started: float) -> None:
    if not getattr(args, "out", None):
        return
    doc = dict(doc)
    doc["timestamp"] = "%s elapsed=%.3fs" % (_now(), time.monotonic() - started)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# input handling


def _load(ref: str):
    """A module reference is a description file path or a corpus name."""
    if os.path.exists(ref):
        d = parse_module(ref)
        name = d.name or os.path.splitext(os.path.basename(ref))[0]
        return name, d.module, d.expected, d.orders
    if ref in corpus.names():
        entry = corpus.build(ref)
        return entry.name, entry.module, entry.expected, {}
    raise UsageError("no such file or corpus module: %s" % ref)


def _parse_rho_grid(text: str) -> tuple[int, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.isdigit() or int(tok) < 1:
            raise UsageError("--rho-grid wants positive integers k "
                             "(sample radii p^(-1/k)), got %r" % tok)
        out.append(int(tok))
    if not out:
        raise UsageError("--rho-grid is empty")
    return tuple(out)


def _parse_rho(tok: str) -> Fraction:
    """A sample radius: 1 for the boundary, or p^-R with R rational."""
    tok = tok.strip()
    if tok == "1":
        return Fraction(0)
    if tok.startswith("p^-"):
        try:
            r = Fraction(tok[3:])
        except (ValueError, ZeroDivisionError):
            raise UsageError("bad radius exponent in %r" % tok) from None
        if r <= 0:
            raise UsageError("radius must sit inside the closed unit disc")
        return r
    raise UsageError("--rho wants 1 or p^-R with R a positive rational, "
                     "got %r" % tok)


def _config(args, orders: dict | None = None) -> WorkbenchConfig:
    orders = orders or {}
    cfg = WorkbenchConfig()
    order = args.order if args.order is not None else orders.get("solve")
    iterates = (args.iterates if args.iterates is not None
                else orders.get("iterates"))
    cfg = cfg.scaled(order=order, iterates=iterates)
    if args.rho_grid:
        grid = _parse_rho_grid(args.rho_grid)
        cfg = replace(cfg, radii=replace(cfg.radii, rho_denominators=grid))
    if args.tolerance_growth is not None:
        cfg = replace(cfg, verify=replace(cfg.verify,
                                          growth_tolerance=args.tolerance_growth))
    if args.jobs is not None:
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        cfg = replace(cfg, jobs=args.jobs)
    return cfg


def _config_echo(cfg: WorkbenchConfig) -> dict:
    return {
        "order": cfg.solve.order,
        "iterates": cfg.radii.iterates,
        "rho_denominators": list(cfg.radii.rho_denominators),
        "growth_tolerance": _dec(cfg.verify.growth_tolerance),
        "transfer_tolerance": _dec(cfg.verify.transfer_tolerance),
        "jobs": cfg.jobs,
    }


# ----------------------------------------------------------------------
# report digests


def _digest_sections(h0) -> list[dict]:
    out = []
    for rep in h0.sections:
        out.append({
            "start": [str(c.exact) if c.is_exact else str(c) for c in rep.start],
            "verdict": rep.verdict,
            "lam": None if rep.lam is None else str(rep.lam),
            "delta_hat": _dec(rep.delta_hat),
        })
    return out


def _digest_boundary(b) -> dict:
    return {
        "log_radii": [_rad(v) for v in b.log_radii],
        "provenance": list(b.provenance),
        "residual_ok": list(b.residual_ok),
        "grid": [str(r) for r in b.grid],
        "solvable_rank": b.solvable_rank,
    }


def _digest_multiset(ms) -> dict:
    return {
        "r": str(ms.log_rho),
        "log_radii": [_rad(v) for v in ms.log_radii],
        "provenance": list(ms.provenance),
        "certified": list(ms.certified),
    }


def _digest_witness(w) -> dict:
    d = w.diagnostics
    doc = {
        "branch": d.branch,
        "rank": w.rank,
        "e_sup": _rad(d.e_sup_exponent),
        "e_sup_certified": d.e_sup_certified,
        "e_horizontal": d.e_horizontal,
        "d_stable": d.d_stable,
        "diagram_ok": d.diagram_ok,
        "theta_growth": _dec(d.theta_growth),
        "h0_of_submodule": d.h0_of_submodule,
        "hypothesis_log_radius": _rad(d.hypothesis_log_radius),
        "hypothesis_ok": d.hypothesis_ok,
        "ok": d.ok,
    }
    if w.phi is not None:
        doc["phi"] = [[_entry_to_json(c) for c in row] for row in w.phi.entries]
    if w.theta is not None:
        doc["theta"] = [[_entry_to_json(c) for c in row] for row in w.theta.entries]
    if w.e is not None:
        doc["e"] = [_entry_to_json(c) for c in w.e]
    if w.submodule is not None:
        doc["submodule_matrix"] = [[_entry_to_json(c) for c in row]
                                   for row in w.submodule.matrix.entries]
    return doc


def _digest_dwork(rep) -> dict:
    return {
        "module": rep.label,
        "rank": rep.rank,
        "h0_dim": rep.h0_dim,
        "applicable": rep.applicable,
        "delta_hats": [_dec(d) for d in rep.delta_hats],
        "bound": _dec(rep.bound),
        "fil_stable": rep.fil_stable,
        "verdict": rep.verdict,
        "order": rep.order,
    }


def _digest_conjecture(rep) -> dict:
    doc = {
        "module": rep.label,
        "rank": rep.rank,
        "h0_dim": rep.h0_dim,
        "delta_hats": [_dec(d) for d in rep.delta_hats],
        "bound": _dec(rep.bound),
        "verdict": rep.verdict,
        "vacuous": rep.vacuous,
        "hypothesis": {
            "route": rep.hypothesis_route,
            "log_radius": _rad(rep.hypothesis_log_radius),
            "ok": rep.hypothesis_ok,
        },
        "witness_status": rep.witness_status,
        "dwork": _digest_dwork(rep.dwork),
        "transfer": {
            "log_radius": _rad(rep.transfer.log_radius),
            "h0_dim": rep.transfer.h0_dim,
            "rank": rep.transfer.rank,
            "tolerance": _dec(rep.transfer.tolerance),
            "consistent": rep.transfer.consistent,
        },
        "boundary": _digest_boundary(rep.boundary),
        "window": {"order": rep.order, "iterates": rep.iterates},
        "tolerances": {"growth": _dec(rep.growth_tolerance),
                       "transfer": _dec(rep.transfer_tolerance)},
    }
    if rep.witness is not None:
        doc["witness"] = _digest_witness(rep.witness)
    return doc


def _verdict_exit(*verdicts: str) -> int:
    if any(v == FAIL for v in verdicts):
        return 1
    if any(v == INCONCLUSIVE for v in verdicts):
        return 2
    return 0


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    h0 = module.h0_basis(cfg.solve)
    print("%s: rank %d over Q_%d, order %d"
          % (name, module.rank, module.p, cfg.solve.order))
    for i, rep in enumerate(h0.sections):
        line = "  section %d: %s" % (i, rep.verdict)
        if rep.verdict == "convergent":
            line += ", delta_hat %s" % _dec(rep.delta_hat)
            line += ", y = (%s)" % ", ".join(_poly_str(c) for c in rep.section)
        elif rep.lam is not None:
            line += ", growth rate %s" % rep.lam
        print(line)
    print("  H^0 dimension %d (echelon steps %d)%s"
          % (h0.dim, h0.echelon_steps,
             ", inconclusive" if h0.inconclusive else ""))
    _emit(args, {
        "command": "solve",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
        "h0_dim": h0.dim,
        "inconclusive": h0.inconclusive,
        "echelon_steps": h0.echelon_steps,
        "sections": _digest_sections(h0),
    }, started)
    return 2 if h0.inconclusive else 0


def cmd_h0(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    h0 = module.h0_basis(cfg.solve)
    verdicts = ", ".join(r.verdict for r in h0.sections)
    print("%s: h0 = %d of %d (%s)%s"
          % (name, h0.dim, module.rank, verdicts,
             ", inconclusive" if h0.inconclusive else ""))
    _emit(args, {
        "command": "h0",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
        "h0_dim": h0.dim,
        "inconclusive": h0.inconclusive,
        "verdicts": [r.verdict for r in h0.sections],
    }, started)
    return 2 if h0.inconclusive else 0


def cmd_growth(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    h0 = module.h0_basis(cfg.solve)
    rows = []
    indeterminate = h0.inconclusive
    print("%s: log-growth of the %d bounded sections" % (name, h0.dim))
    for i, sec in enumerate(h0.basis):
        order = orders.get("growth")
        got = growth_order(sec, order=order, tail_start=cfg.solve.tail_start)
        indeterminate = indeterminate or got.indeterminate
        print("  section %d: delta_hat %s on window %s%s"
              % (i, _dec(got.value), got.window,
                 ", indeterminate" if got.indeterminate else ""))
        rows.append({
            "delta_hat": _dec(got.value),
            "attained": list(got.attained) if got.attained else None,
            "window": list(got.window),
            "indeterminate": got.indeterminate,
        })
    _emit(args, {
        "command": "growth",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
        "h0_dim": h0.dim,
        "sections": rows,
    }, started)
    return 2 if indeterminate else 0


def cmd_radii(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    wb = RadiusWorkbench(module, cfg.radii)
    boundary = wb.boundary_multiset()
    print("%s: boundary log_p radii %s"
          % (name, ", ".join(str(v) for v in boundary.log_radii)))
    print("  provenance %s; residual ok %s; solvable rank %d"
          % (", ".join(boundary.provenance),
             all(boundary.residual_ok), boundary.solvable_rank))
    grid_rows = []
    for k in cfg.radii.rho_denominators:
        r = Fraction(1, k)
        ms = wb.multiset(r)
        print("  r=%s: %s" % (r, ", ".join(str(v) for v in ms.log_radii)))
        grid_rows.append(_digest_multiset(ms))
    doc = {
        "command": "radii",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
        "boundary": _digest_boundary(boundary),
        "grid": grid_rows,
    }
    if args.rho is not None:
        r = _parse_rho(args.rho)
        ms = wb.multiset(r)
        rho = "1" if r == 0 else "p^-%s" % r
        print("  sample at rho=%s: %s"
              % (rho, ", ".join("p^(%s)" % v for v in ms.log_radii)))
        doc["sample"] = _digest_multiset(ms)
    _emit(args, doc, started)
    return 0


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def _fprofile_svg(rows, rank: int) -> str:
    width, height, margin = 640, 440, 60
    xs = [float(r) for r, _ in rows]
    ys = [float(v) for _, partial in rows for v in partial]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (margin, margin, margin, height - margin),
        '<text x="%.1f" y="%.1f" font-size="12">r = -log_p rho</text>'
        % (width / 2 - 40, height - margin / 3),
        '<text x="%.1f" y="%.1f" font-size="12" transform="rotate(-90 %.1f %.1f)">'
        'F_i(r)</text>' % (margin / 3, height / 2, margin / 3, height / 2),
    ]
    for i in range(rank):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join("%.2f,%.2f" % (sx(float(r)), sy(float(partial[i])))
                       for r, partial in rows)
        parts.append('<polyline fill="none" stroke="%s" stroke-width="1.5" '
                     'points="%s"/>' % (color, pts))
        last_r, last_partial = rows[-1]
        parts.append('<text x="%.1f" y="%.1f" font-size="11" fill="%s">F_%d</text>'
                     % (sx(float(last_r)) + 4, sy(float(last_partial[i])),
                        color, i + 1))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_fprofile(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    wb = RadiusWorkbench(module, cfg.radii)
    rs = sorted({Fraction(0), *(Fraction(1, k) for k in cfg.radii.rho_denominators)})
    prof = wb.f_profile(rs)
    print("%s: partial-sum profile on %d radii (convex: %s)"
          % (name, len(prof.rows), prof.convex))
    for r, partial in prof.rows:
        print("  r=%s: %s" % (r, ", ".join(str(v) for v in partial)))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r"] + ["F_%d" % (i + 1) for i in range(module.rank)])
            for r, partial in prof.rows:
                writer.writerow([str(r)] + [str(v) for v in partial])
        print("  wrote %s" % args.csv)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(_fprofile_svg(prof.rows, module.rank))
        print("  wrote %s" % args.svg)
    _emit(args, {
        "command": "fprofile",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
        "rows": [{"r": str(r), "partial_sums": [str(v) for v in partial]}
                 for r, partial in prof.rows],
        "convex": prof.convex,
        "nondecreasing": prof.nondecreasing,
    }, started)
    return 0


def cmd_construct(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    status = 0
    doc = {
        "command": "construct-l",
        "module": name,
        "prime": module.p,
        "rank": module.rank,
        "config": _config_echo(cfg),
    }
    try:
        witness = construct_submodule(module, cfg)
    except WitnessError as exc:
        status = 2 if exc.inconclusive else 1
        print("%s: construction %s: %s"
              % (name, "inconclusive" if exc.inconclusive else "failed", exc))
        doc["error"] = str(exc)
        doc["inconclusive"] = exc.inconclusive
        _emit(args, doc, started)
        return status
    d = witness.diagnostics
    print("%s: %s branch, submodule rank %d of %d"
          % (name, d.branch, witness.rank, module.rank))
    print("  e sup p^(%s) certified=%s; horizontal=%s; D-stable=%s; "
          "diagram=%s" % (d.e_sup_exponent, d.e_sup_certified,
                          d.e_horizontal, d.d_stable, d.diagram_ok))
    if d.theta_growth is not None:
        print("  frame change growth %s; submodule h0 %s"
              % (_dec(d.theta_growth), d.h0_of_submodule))
    if d.hypothesis_log_radius is not None:
        print("  subsidiary radius hypothesis: log %s (%s)"
              % (d.hypothesis_log_radius, "ok" if d.hypothesis_ok else "violated"))
    print("  diagnostics %s" % ("ok" if d.ok else "FAILING"))
    doc["witness"] = _digest_witness(witness)
    _emit(args, doc, started)
    return 0 if d.ok else 1


def cmd_verify_dwork(args) -> int:
    started = time.monotonic()
    name, module, _, orders = _load(args.module)
    cfg = _config(args, orders)
    rep = verify_dwork_bound(module, cfg)
    if not rep.applicable:
        print("%s: %s (h0 %d < rank %d, bound does not apply)"
              % (name, rep.verdict, rep.h0_dim, rep.rank))
    else:
        print("%s: %s (delta_hats %s, bound %s, fil stable %s)"
              % (name, rep.verdict,
                 ", ".join(_dec(d) for d in rep.delta_hats) or "none",
                 _dec(rep.bound), rep.fil_stable))
    _emit(args, {
        "command": "verify-dwork",
        "config": _config_echo(cfg),
        "report": _digest_dwork(rep),
    }, started)
    return _verdict_exit(rep.verdict)


def _print_conjecture(rep) -> None:
    deltas = ", ".join(_dec(d) for d in rep.delta_hats) or "none"
    bound = "vacuous" if rep.bound is None else "bound %s" % _dec(rep.bound)
    print("%s: %s (n=%d of rank %d, delta_hats %s, %s)"
          % (rep.label, rep.verdict, rep.h0_dim, rep.rank, deltas, bound))
    hyp = rep.hypothesis_log_radius
    print("  hypothesis [%s]: %s" % (
        rep.hypothesis_route,
        "log radius %s %s" % (hyp, "ok" if rep.hypothesis_ok else "violated")
        if hyp is not None else "not needed"))
    print("  witness: %s" % rep.witness_status)
    print("  dwork: %s; transfer: %s"
          % (rep.dwork.verdict,
             "consistent" if rep.transfer.consistent else "INCONSISTENT"))


def cmd_verify_conjecture(args) -> int:
    started = time.monotonic()
    name, module, expected, orders = _load(args.module)
    cfg = _config(args, orders)
    rep = verify_conjecture(module, cfg)
    _print_conjecture(rep)
    # a description file's expected block is a regression check; corpus
    # modules are checked by `padiff corpus`
    failed = []
    if expected and os.path.exists(args.module):
        failed = [k for k, ok in _corpus_checks(rep, expected).items() if not ok]
        for key in failed:
            print("  expected %s: mismatch" % key)
    _emit(args, {
        "command": "verify-conjecture",
        "config": _config_echo(cfg),
        "report": _digest_conjecture(rep),
    }, started)
    verdicts = [rep.verdict]
    if not rep.transfer.consistent or failed:
        verdicts.append(FAIL)
    return _verdict_exit(*verdicts)


# ----------------------------------------------------------------------
# corpus batch


def _corpus_checks(rep, expected: dict) -> dict:
    checks = {}
    if "h0_dim" in expected:
        checks["h0_dim"] = rep.h0_dim == expected["h0_dim"]
    if "boundary_log_radii" in expected:
        measured = [str(v) for v in rep.boundary.log_radii]
        checks["boundary_log_radii"] = measured == expected["boundary_log_radii"]
    if "solvable_rank" in expected:
        rank = rep.witness.rank if rep.witness is not None else None
        checks["solvable_rank"] = rank == expected["solvable_rank"]
    if "max_delta" in expected:
        limit = expected["max_delta"] + rep.growth_tolerance
        checks["max_delta"] = all(d <= limit for d in rep.delta_hats)
    checks["transfer"] = rep.transfer.consistent
    return checks


def _corpus_job(payload) -> dict:
    name, cfg = payload
    entry = corpus.build(name)
    rep = verify_conjecture(entry.module, cfg)
    checks = _corpus_checks(rep, entry.expected)
    verdict = rep.verdict
    if verdict == PASS and not all(checks.values()):
        verdict = FAIL
    return {
        "module": name,
        "verdict": verdict,
        "checks": checks,
        "report": _digest_conjecture(rep),
    }


def cmd_corpus(args) -> int:
    started = time.monotonic()
    cfg = _config(args)
    selected = corpus.names()
    if args.only:
        wanted = [t.strip() for t in args.only.split(",") if t.strip()]
        unknown = [t for t in wanted if t not in selected]
        if unknown:
            raise UsageError("unknown corpus modules: %s" % ", ".join(unknown))
        selected = [n for n in selected if n in wanted]
    if args.skip:
        dropped = {t.strip() for t in args.skip.split(",") if t.strip()}
        unknown = sorted(dropped - set(selected))
        if unknown:
            raise UsageError("unknown corpus modules: %s" % ", ".join(unknown))
        selected = [n for n in selected if n not in dropped]
    if not selected:
        raise UsageError("corpus selection is empty")

    payloads = [(name, cfg) for name in selected]
    # the pool forks every worker up front, so never more than can be busy
    workers = min(cfg.jobs, len(selected), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_corpus_job, payloads))
    else:
        results = [_corpus_job(p) for p in payloads]

    counts = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
    for res in results:
        counts[res["verdict"]] = counts.get(res["verdict"], 0) + 1
        failing = [k for k, ok in res["checks"].items() if not ok]
        suffix = (" [%s]" % ", ".join(failing)) if failing else ""
        print("%s: %s%s" % (res["module"], res["verdict"], suffix))
    rollup = ("FAIL" if counts.get(FAIL) else
              "INCONCLUSIVE" if counts.get(INCONCLUSIVE) else "PASS")
    print("corpus: %d modules, %d pass, %d fail, %d inconclusive -> %s"
          % (len(results), counts.get(PASS, 0), counts.get(FAIL, 0),
             counts.get(INCONCLUSIVE, 0), rollup))
    _emit(args, {
        "command": "corpus",
        "config": _config_echo(cfg),
        "modules": results,
        "rollup": {
            "pass": counts.get(PASS, 0),
            "fail": counts.get(FAIL, 0),
            "inconclusive": counts.get(INCONCLUSIVE, 0),
            "verdict": rollup,
        },
    }, started)
    return _verdict_exit(*(res["verdict"] for res in results))


# ----------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write a JSON report")
    common.add_argument("--order", type=int, metavar="N",
                        help="truncation order for section solving")
    common.add_argument("--iterates", type=int, metavar="N",
                        help="derivation power iterates for radius reads")
    common.add_argument("--rho-grid", dest="rho_grid", metavar="LIST",
                        help="comma list of k; sample radii p^(-1/k)")
    common.add_argument("--tolerance-growth", dest="tolerance_growth",
                        type=float, metavar="X",
                        help="slack on log-growth bounds")
    common.add_argument("--jobs", type=int, metavar="N",
                        help="parallel workers for batch runs")

    parser = _Parser(prog="padiff",
                     description="workbench for p-adic differential modules "
                                 "on the open unit disc")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, module_arg=True):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if module_arg:
            sp.add_argument("module",
                            help="module description file or corpus name")
        sp.set_defaults(func=func)
        return sp

    add("solve", cmd_solve, "solve for horizontal sections")
    add("h0", cmd_h0, "dimension of the bounded horizontal sections")
    add("growth", cmd_growth, "log-growth orders of the bounded sections")
    sp = add("radii", cmd_radii, "convergence radius multisets")
    sp.add_argument("--rho", metavar="RHO",
                    help="extra sample radius: 1 or p^-R, R rational")
    sp = add("fprofile", cmd_fprofile, "partial sums of -log radii over a grid")
    sp.add_argument("--csv", metavar="PATH", help="write the profile as CSV")
    sp.add_argument("--svg", metavar="PATH", help="write the profile as SVG")
    add("construct-l", cmd_construct, "build the solvable submodule witness")
    add("verify-dwork", cmd_verify_dwork,
        "check the rank-1 growth bound on solvable modules")
    add("verify-conjecture", cmd_verify_conjecture,
        "check the h0-1 growth bound with witness")
    sp = add("corpus", cmd_corpus, "run the bundled corpus suite",
             module_arg=False)
    sp.add_argument("--only", metavar="LIST", help="comma list of names to run")
    sp.add_argument("--skip", metavar="LIST", help="comma list of names to drop")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return args.func(args)
    except (ModfileError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
