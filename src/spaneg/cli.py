"""Command-line front end.

Subcommands: analyze, sweep, random-study, simulate, spa-verify.  Exit
codes form a stable contract: 0 success, 1 usage error, 2 input validation
failure, 3 internal invariant failure.

All CSV output uses '.' as decimal separator, 17 significant digits and LF
line endings, and is byte-stable across runs at a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import curves, linalg, measures, shotsim, spa, states

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

# States per stacked draw in random_study_rows and random_pair_residuals.
# Peak memory grows with the chunk faster than speed does: for a 10 000-state
# study, peak RSS over the per-state loop was +1-3 % at 256, +2-4 % at 1024
# (for ~5 % more throughput) and +30 % unchunked.
STUDY_CHUNK = 256


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for
    # input validation, so remap usage problems to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)


def _resolve_state(args) -> states.DensityMatrix:
    if args.state:
        return states.load_state(args.state)
    if not args.family:
        raise UsageError("one of --family or --state is required")
    if args.param is None and args.family != "bell":
        raise UsageError(f"family {args.family!r} requires --param")
    return states.from_spec(args.family, args.param)


def _report_payload(report: measures.EntanglementReport) -> dict:
    payload = dataclasses.asdict(report)
    return {k: v for k, v in payload.items() if v is not None}


def cmd_analyze(args) -> int:
    rho = _resolve_state(args)
    report = measures.full_report(rho)
    _write(json.dumps(_report_payload(report), indent=1) + "\n", args.out)
    return EXIT_OK


def sweep_rows(family: str, points: int):
    """Rows of the figure-reproduction sweep for one family.

    Yields (param, nd_definition, nd_closed_form, mu_min, nn_pipeline,
    nn_closed_form, abs_gap); abs_gap is |nn_pipeline - nd_definition|,
    the visible distance between the two curves.
    """
    if family not in curves.ND_CLOSED:
        raise UsageError(f"sweep supports families {sorted(curves.ND_CLOSED)}, got {family!r}")
    if points < 2:
        raise UsageError(f"--points must be >= 2, got {points}")
    for value in np.linspace(0.0, 1.0, points):
        rho = states.from_spec(family, float(value))
        nd = measures.negativity_exact(rho)
        mu = spa.spa_pt_affine(rho).mu_min
        nn = measures.negativity_normalized(mu)
        nd_cf = curves.ND_CLOSED[family](float(value))
        nn_cf = curves.NN_CLOSED[family](nd_cf)
        yield float(value), nd, nd_cf, mu, nn, nn_cf, abs(nn - nd)


def cmd_sweep(args) -> int:
    if not args.family:
        raise UsageError("sweep requires --family")
    lines = ["param,nd_definition,nd_closed_form,mu_min,nn_pipeline,nn_closed_form,abs_gap"]
    for row in sweep_rows(args.family, args.points):
        lines.append(",".join(_fmt(x) for x in row))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def random_study_rows(count: int, seed: int, rank: int = 4):
    """Per-state rows plus a summary of the worst invariant violations.

    States are drawn and measured STUDY_CHUNK at a time; the rows are those
    of `count` sequential random_mixed draws from one generator.
    """
    rng = np.random.default_rng(seed)
    max_tight = 0.0
    max_universal = 0.0
    max_neg = 0
    rows = []
    for start in range(0, count, STUDY_CHUNK):
        rhos = states.random_mixed_batch(rng, min(STUDY_CHUNK, count - start), rank=rank)
        rep = measures.batch_report(rhos)
        rows.extend(zip(
            range(start, start + len(rhos)), [rank] * len(rhos), rep.nd.tolist(),
            rep.nn.tolist(), rep.mu_min.tolist(), rep.concurrence.tolist(),
            rep.ppt.tolist(), rep.neg_count.tolist(),
        ))
        tight = np.abs(rep.nd - np.maximum(0.0, 4.0 - 18.0 * rep.mu_min))
        max_tight = max(max_tight, float(tight.max()))
        max_universal = max(max_universal, float(np.abs(rep.nn - curves.nn_from_nd(rep.nd)).max()))
        max_neg = max(max_neg, int(rep.neg_count.max()))
    summary = {
        "max_tightness_violation": max_tight,
        "max_universal_relation_violation": max_universal,
        "max_neg_pt_eigs": max_neg,
    }
    return rows, summary


def cmd_random_study(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    rows, summary = random_study_rows(args.count, args.seed)
    lines = ["seed_index,rank,nd,nn,mu_min,concurrence,ppt,neg_pt_eigs"]
    for i, rank, nd, nn, mu, conc, ppt, neg in rows:
        lines.append(
            f"{i},{rank},{_fmt(nd)},{_fmt(nn)},{_fmt(mu)},{_fmt(conc)},"
            f"{'true' if ppt else 'false'},{neg}"
        )
    lines.append(
        "# summary,max_tightness_violation=%s,max_universal_relation_violation=%s,"
        "max_neg_pt_eigs=%d"
        % (
            _fmt(summary["max_tightness_violation"]),
            _fmt(summary["max_universal_relation_violation"]),
            summary["max_neg_pt_eigs"],
        )
    )
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    rho = _resolve_state(args)
    if args.shots < 1 or args.trials < 1:
        raise UsageError("--shots and --trials must be >= 1")
    est = shotsim.estimate_negativity(rho, args.shots, args.trials, args.seed)
    payload = dataclasses.asdict(est)
    payload["ci95"] = list(payload["ci95"])
    payload["exact_nn"] = measures.negativity_normalized(spa.spa_pt_affine(rho).mu_min)
    _write(json.dumps(payload, indent=1) + "\n", args.out)
    return EXIT_OK


def _pair_residuals(x) -> tuple[float, float]:
    # One chunk of random_pair_residuals; its arrays are freed before the next draw.
    k = len(x)
    rhos = states.ginibre_from_normals(x[:, :32].reshape(k, 2, 4, 4))
    comp = spa.spa_pt_compositional_batch(rhos)
    pts = linalg.partial_transpose_batch(rhos)
    affine = spa.affine_from_pt(pts)
    dev = float(np.abs(affine - comp).max())
    # Per state, as in random_pure: stacked normalisations round differently.
    phis = np.stack([
        states.pure_from_vector(v / np.linalg.norm(v)).mat
        for v in x[:, 32:36] + 1j * x[:, 36:40]
    ])
    lhs = np.trace(phis @ pts, axis1=1, axis2=2).real
    rhs = 9.0 * np.trace(phis @ affine, axis1=1, axis2=2).real - 2.0
    return dev, float(np.abs(lhs - rhs).max())


def random_pair_residuals(seed: int, n_states: int) -> tuple[float, float]:
    """Worst compositional-vs-affine entry deviation and worst trace-relation
    residual |Tr(P rho^{T_B}) - 9 Tr(P rho~) + 2| over random (rho, P) pairs.

    Pairs are drawn and checked STUDY_CHUNK at a time.  Each row of a chunk's
    (k, 40) normal draw holds a Ginibre G (32 normals, as in
    random_mixed_batch) and then the real and imaginary parts of P's vector,
    so the pairs are those of alternating random_mixed / random_pure draws
    from one generator, and both maxima are bitwise theirs.
    """
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_trace_rel = 0.0
    for start in range(0, n_states, STUDY_CHUNK):
        dev, trace_rel = _pair_residuals(
            rng.standard_normal((min(STUDY_CHUNK, n_states - start), 40))
        )
        max_dev = max(max_dev, dev)
        max_trace_rel = max(max_trace_rel, trace_rel)
    return max_dev, max_trace_rel


def spa_verify_report(seed: int = 20260824, n_states: int = 1000, grid: int = 21):
    """Build the SPA compatibility report; (text, all_affine_invariants_ok)."""
    lines = ["SPA-PT verification report", "=" * 26]
    ok = True

    res = spa.CONSTANTS.completeness_residual
    lines.append(f"POVM completeness residual: {res:.3e}")

    max_dev, max_trace_rel = random_pair_residuals(seed, n_states)
    lines.append(f"compositional vs affine max deviation ({n_states} random states): {max_dev:.3e}")
    lines.append(f"affine trace-relation residual ({n_states} random (rho, P) pairs): {max_trace_rel:.3e}")
    if max_trace_rel > 1e-10:
        ok = False
    if max_dev > 1e-10:
        lines.append("NOTE: compositional path deviates from affine beyond 1e-10")

    for family, mu_cf in (("pure_m", curves.mu_pure_m), ("horodecki", curves.mu_horodecki)):
        max_lit = 0.0
        max_mu = 0.0
        for value in np.linspace(0.0, 1.0, grid):
            rho = states.from_spec(family, float(value))
            literal = spa.spa_pt_paper_entries(rho)
            affine = spa.spa_pt_affine(rho)
            max_lit = max(
                max_lit, float(np.abs(literal.rho_tilde.mat - affine.rho_tilde.mat).max())
            )
            max_mu = max(max_mu, abs(literal.mu_min - mu_cf(float(value))))
        lines.append(
            f"paper-literal vs affine max entry deviation on {family} grid: {max_lit:.3e}"
        )
        lines.append(
            f"paper-literal mu_min vs closed form on {family} grid: {max_mu:.3e}"
        )

    for method, expect_cp in (("affine", True), ("compositional", True), ("pt", False), ("identity", True)):
        _, is_cp, min_eig = spa.choi_matrix(method)
        verdict = "CP" if is_cp else "NOT CP"
        lines.append(f"Choi({method}): min eigenvalue {min_eig:.6e} -> {verdict}")
        if method == "affine" and (not is_cp or min_eig < -1e-12):
            ok = False
        if method == "pt" and is_cp:
            ok = False

    lines.append(f"affine invariants: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", ok


def cmd_spa_verify(args) -> int:
    text, ok = spa_verify_report(seed=args.seed)
    _write(text, args.out)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> _Parser:
    parser = _Parser(prog="spaneg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=False, sweep=False, rand=False, sim=False):
        if state:
            p.add_argument("--family", choices=states.FAMILIES, default=None)
            p.add_argument("--state", default=None, help="path to a JSON state file")
            p.add_argument("--param", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if sweep:
            p.add_argument("--points", type=int, default=101)
        if rand:
            p.add_argument("--count", type=int, default=1000)
        if sim:
            p.add_argument("--shots", type=int, default=100000)
            p.add_argument("--trials", type=int, default=100)

    add_common(sub.add_parser("analyze", help="full entanglement report of one state"), state=True)
    p = sub.add_parser("sweep", help="figure-reproduction parameter sweep (CSV)")
    add_common(p, state=False, sweep=True)
    p.add_argument("--family", choices=sorted(curves.ND_CLOSED), required=False, default=None)
    add_common(sub.add_parser("random-study", help="random-ensemble invariant study (CSV)"), rand=True)
    add_common(sub.add_parser("simulate", help="finite-shot estimation of one state"), state=True, sim=True)
    add_common(sub.add_parser("spa-verify", help="SPA construction compatibility report"))
    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "random-study": cmd_random_study,
    "simulate": cmd_simulate,
    "spa-verify": cmd_spa_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (states.StateValidationError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except spa.ConstructionInconsistencyError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
