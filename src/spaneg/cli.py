"""Command-line front end.

Subcommands: analyze, sweep, random-study, simulate, spa-verify.  Exit
codes form a stable contract: 0 success, 1 usage error, 2 input validation
failure, 3 internal invariant failure.

All CSV output uses '.' as decimal separator, 17 significant digits and LF
line endings, and is byte-stable across runs at a fixed seed.

random-study and sweep write their CSV one chunk of rows at a time, so their
memory does not grow with the run.  With --out PATH every command writes
PATH.partial and renames it to PATH only on success: a failed run leaves no
file, and an earlier PATH is untouched.  A symlink PATH is followed: the
partial file is written beside the link's resolved target and renamed onto
that target, so the link stays.  An existing PATH that is not a regular file
or a directory (a FIFO, a socket, a device) cannot be replaced by a rename,
so it is written straight through, and a failed run leaves there what it
wrote.  On stdout the rows of a failed run that were already written stay
written; the run exits non-zero and random-study's closing '# summary' line
is missing, so a random-study CSV without it is incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import curves, linalg, measures, spa, states
from .states import path_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

# Items per stacked chunk wherever many states are processed: random_study_rows,
# random_pair_residuals and sweep_rows.  Peak memory grows with the chunk
# faster than speed does: for a 10 000-state study, peak RSS over the
# per-state loop was +1-3 % at 256, +2-4 % at 1024 (for ~5 % more throughput)
# and +30 % unchunked.
STUDY_CHUNK = 256

# Caps on run sizes, checked right after parsing, before any draw or allocation.
# The time at each cap is scaled from a run at a tenth of it on a 2-core Xeon.
# random-study: ~25 s.
MAX_COUNT = 1_000_000
# sweep: ~20 s (horodecki, the slowest family).
MAX_POINTS = 1_000_000
# simulate takes BTPE's steps in numpy for all but about 1 trial in 55, and
# draws those from one reused generator: ~0.28 s (0.22-0.34 s) and ~54 MB
# peak RSS at --shots 100000, measured at the cap itself (in-process cli.run
# after a 100-trial call, median of 8 processes, 1 BLAS thread).
MAX_TRIALS = 1_000_000
# A trial's F_avg is k / shots, which float64 holds exactly for shots <= 2**53.
MAX_SHOTS = 2**53
# (least, greatest) of each integer flag; None is no bound.  --param is not
# here: a family checks its own range, as an input error (exit 2).
_LIMITS = {
    "seed": (0, None),
    "count": (1, MAX_COUNT),
    "points": (2, MAX_POINTS),
    "trials": (1, MAX_TRIALS),
    "shots": (1, MAX_SHOTS),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for
    # input validation, so remap usage problems to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _out_target(out_path) -> tuple[str, bool]:
    """(path, direct): the file --out writes, a symlink's resolved target or
    out_path itself, and whether it exists but is neither a regular file nor
    a directory, so that it is written straight through.  A path no file can
    have, empty or with a NUL byte, is a UsageError naming --out."""
    if not out_path:
        raise UsageError("--out '': empty path")
    target = out_path
    try:
        if stat.S_ISLNK(os.lstat(target).st_mode):
            target = os.path.realpath(target)
        mode = os.stat(target).st_mode
    except OSError:  # missing, or unreachable: creating the partial file reports it
        return target, False
    except ValueError as exc:  # lstat raises it first, so _output's open() never does
        raise UsageError(f"--out {path_text(out_path)}: {exc}") from exc
    return target, not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


@contextlib.contextmanager
def _output(out_path):
    """Yield the write function of a run's output: the file at out_path, or stdout.

    A file is written as target + ".partial" and renamed onto the target only
    when the block ends without an exception; otherwise the partial file is
    deleted, so a failed run leaves no file and an earlier target untouched.
    The target is out_path, or the resolved target of a symlink out_path.  A
    FIFO, socket or device target is written straight through instead.  Text
    already written to stdout stays written.  A partial file that cannot be
    created, a rename that fails, or a straight-through target that cannot be
    opened or written is a UsageError naming --out.
    """
    if out_path is None:
        yield sys.stdout.write
        return
    target, direct = _out_target(out_path)
    shown = path_text(out_path)
    if direct:
        try:
            with open(target, "w", newline="\n") as f:
                yield f.write
        except OSError as exc:
            raise UsageError(f"--out {shown}: cannot write {path_text(target)}: {exc.strerror}") from exc
        return
    partial = Path(f"{target}.partial")
    try:
        f = open(partial, "w", newline="\n")
    except OSError as exc:
        raise UsageError(f"--out {shown}: cannot create {path_text(partial)}: {exc.strerror}") from exc
    try:
        with f:
            yield f.write
        try:
            os.replace(partial, target)
        except OSError as exc:
            raise UsageError(f"--out {shown}: cannot move {path_text(partial)} onto it: {exc.strerror}") from exc
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write(text: str, out_path) -> None:
    """Write a run's whole output: straight to stdout with no --out, else through _output."""
    if out_path is None:
        sys.stdout.write(text)
        return
    with _output(out_path) as write:
        write(text)


def _resolve_state(args) -> states.DensityMatrix:
    if args.state is not None:
        if not args.state:  # names no file, as an empty --out
            raise UsageError("--state '': empty path")
        given = [f"--{name}" for name in ("family", "param") if getattr(args, name) is not None]
        if given:  # named before the file is read, so it wins over an unreadable file
            raise UsageError(f"--state cannot be combined with {' or '.join(given)}")
        return states.load_state(args.state)
    if not args.family:
        raise UsageError("one of --family or --state is required")
    if args.param is None and args.family != "bell":
        raise UsageError(f"family {args.family!r} requires --param")
    return states.from_spec(args.family, args.param)


# The analyze report as json.dumps(payload, indent=1) prints it, where
# payload holds every EntanglementReport field that is not None, in field
# order: json writes a float as repr(float(x)) and a bool as true or false.
# Every float field of a report is a Python float, so %r is that repr.
_ANALYZE = (
    '{\n "nd": %r,\n "nn": %r,\n "lower_bound": %r,\n "concurrence": %r,\n'
    ' "ppt": %s,\n "mu_min": %r,\n "bias": %r'
)
_ANALYZE_PURE = ',\n "concurrence_pure_est": %r'
_ANALYZE_QUASI = ',\n "concurrence_quasi_est": %r'


def _analyze_text(report: measures.EntanglementReport) -> str:
    text = _ANALYZE % (
        report.nd, report.nn, report.lower_bound, report.concurrence,
        "true" if report.ppt else "false", report.mu_min, report.bias,
    )
    if report.concurrence_pure_est is not None:
        text += _ANALYZE_PURE % report.concurrence_pure_est
    if report.concurrence_quasi_est is not None:
        text += _ANALYZE_QUASI % report.concurrence_quasi_est
    return text + "\n}\n"


def cmd_analyze(args) -> int:
    rho = _resolve_state(args)
    _write(_analyze_text(measures.full_report(rho)), args.out)
    return EXIT_OK


# One CSV line per row, each float with 17 significant digits ('%.17g' % x is
# format(float(x), ".17g")).
_SWEEP_HEADER = "param,nd_definition,nd_closed_form,mu_min,nn_pipeline,nn_closed_form,abs_gap\n"
_SWEEP_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_STUDY_HEADER = "seed_index,rank,nd,nn,mu_min,concurrence,ppt,neg_pt_eigs\n"
_STUDY_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g,%s,%d\n"


def _sweep_chunk(family: str, values: list) -> list:
    rhos = states.family_batch(family, values)
    nd = measures.pt_spectrum_batch(rhos)[0].tolist()
    mu = spa.mu_min_batch(spa.spa_pt_affine_batch(rhos))
    nn = measures.negativity_normalized_batch(mu).tolist()
    rows = []
    for value, nd_i, mu_i, nn_i in zip(values, nd, mu.tolist(), nn):
        nd_cf = curves.ND_CLOSED[family](value)
        nn_cf = curves.NN_CLOSED[family](nd_cf)
        rows.append((value, nd_i, nd_cf, mu_i, nn_i, nn_cf, abs(nn_i - nd_i)))
    return rows


def sweep_rows(family: str, points: int):
    """Rows of the figure-reproduction sweep for one family, one list per
    STUDY_CHUNK points.

    A row is (param, nd_definition, nd_closed_form, mu_min, nn_pipeline,
    nn_closed_form, abs_gap); abs_gap is |nn_pipeline - nd_definition|,
    the visible distance between the two curves.  The family is checked on
    the call; each chunk is measured through the stacked kernels only when
    the iterator reaches it.  The closed forms are evaluated per point.
    """
    if family not in curves.ND_CLOSED:
        raise UsageError(f"sweep supports families {sorted(curves.ND_CLOSED)}, got {family!r}")
    values = np.linspace(0.0, 1.0, points)
    return (_sweep_chunk(family, values[start:start + STUDY_CHUNK].tolist())
            for start in range(0, points, STUDY_CHUNK))


def cmd_sweep(args) -> int:
    chunks = sweep_rows(args.family, args.points)
    with _output(args.out) as write:
        write(_SWEEP_HEADER)
        for rows in chunks:
            write("".join([_SWEEP_ROW % row for row in rows]))
    return EXIT_OK


def random_study_rows(count: int, seed: int, rank: int = 4):
    """Per-state rows of a random-ensemble study, with a running summary of
    the worst invariant violations.

    Yields (rows, summary) once per STUDY_CHUNK states, which are drawn and
    measured only when the iterator reaches them.  A row is (seed_index,
    rank, nd, nn, mu_min, concurrence, ppt, neg_pt_eigs); the states are
    bitwise those of one random_mixed_batch(default_rng(seed), count, rank)
    draw.  summary holds the maxima over every chunk so far, so the last one
    is the run's.
    """
    rng = np.random.default_rng(seed)
    max_tight = 0.0
    max_universal = 0.0
    max_neg = 0
    for start in range(0, count, STUDY_CHUNK):
        rhos = states.random_mixed_batch(rng, min(STUDY_CHUNK, count - start), rank=rank)
        rep = measures.batch_report(rhos)
        rows = list(zip(
            range(start, start + len(rhos)), [rank] * len(rhos), rep.nd.tolist(),
            rep.nn.tolist(), rep.mu_min.tolist(), rep.concurrence.tolist(),
            rep.ppt.tolist(), rep.neg_count.tolist(),
        ))
        tight = np.abs(rep.nd - np.maximum(0.0, 4.0 - 18.0 * rep.mu_min))
        max_tight = max(max_tight, float(tight.max()))
        max_universal = max(max_universal, float(np.abs(rep.nn - curves.nn_from_nd(rep.nd)).max()))
        max_neg = max(max_neg, int(rep.neg_count.max()))
        yield rows, {
            "max_tightness_violation": max_tight,
            "max_universal_relation_violation": max_universal,
            "max_neg_pt_eigs": max_neg,
        }


def cmd_random_study(args) -> int:
    chunks = random_study_rows(args.count, args.seed)
    with _output(args.out) as write:
        write(_STUDY_HEADER)
        for rows, summary in chunks:
            write("".join([
                _STUDY_ROW % (i, rank, nd, nn, mu, conc, "true" if ppt else "false", neg)
                for i, rank, nd, nn, mu, conc, ppt, neg in rows
            ]))
        # Written last: a CSV on stdout without this line is from a run that failed.
        write(
            "# summary,max_tightness_violation=%.17g,max_universal_relation_violation=%.17g,"
            "max_neg_pt_eigs=%d\n"
            % (
                summary["max_tightness_violation"],
                summary["max_universal_relation_violation"],
                summary["max_neg_pt_eigs"],
            )
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    # The shot machinery (shotsim and btpe) loads here, on the first simulate,
    # so that no other command pays for importing it.
    from . import shotsim

    rho = _resolve_state(args)
    est = shotsim.estimate_negativity(rho, args.shots, args.trials, args.seed)
    payload = dataclasses.asdict(est)
    payload["ci95"] = list(payload["ci95"])
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
    phis = states.pure_from_normals(x[:, 32:].reshape(k, 2, 4))
    lhs = linalg.trace_batch(phis @ pts).real
    rhs = 9.0 * linalg.trace_batch(phis @ affine).real - 2.0
    return dev, float(np.abs(lhs - rhs).max())


def random_pair_residuals(seed: int, n_states: int) -> tuple[float, float]:
    """Worst compositional-vs-affine entry deviation and worst trace-relation
    residual |Tr(P rho^{T_B}) - 9 Tr(P rho~) + 2| over random (rho, P) pairs.

    Pairs are drawn and checked STUDY_CHUNK at a time.  Each row of a chunk's
    (k, 40) normal draw holds a Ginibre G (32 normals, as in
    random_mixed_batch) and then the real and imaginary parts of P's vector,
    so the pairs are those of alternating random_mixed_batch(rng, 1) /
    random_pure_batch(rng, 1) draws from one generator, and both maxima are
    bitwise theirs.
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


# The families whose published SPA-PT entries spa-verify checks, each with
# its closed-form mu_min, in report order.
_LITERAL_GRID_FAMILIES = (("pure_m", curves.mu_pure_m), ("horodecki", curves.mu_horodecki))


def _literal_grid_deviations(grid: int) -> dict[str, tuple[float, float]]:
    """Worst paper-literal vs affine entry deviation, and worst paper-literal
    mu_min vs its closed form, over `grid` points in [0, 1] of each family of
    _LITERAL_GRID_FAMILIES, by family.

    Both grids are one stack.  The literal mu_min is the least eigenvalue of
    the literal output's Hermitian part; the closed form is evaluated per point.
    """
    values = np.linspace(0.0, 1.0, grid).tolist()
    rhos = np.concatenate([states.family_batch(family, values) for family, _ in _LITERAL_GRID_FAMILIES])
    affine = spa.spa_pt_affine_batch(rhos)
    linalg.check_hermitian(affine)  # the guard an affine output meets before its mu_min
    literal = spa.spa_pt_paper_entries_batch(rhos)
    mu = spa.mu_min_batch((literal + literal.conj().swapaxes(1, 2)) / 2).tolist()
    deviation = np.abs(literal - affine)
    out = {}
    for k, (family, mu_cf) in enumerate(_LITERAL_GRID_FAMILIES):
        part = slice(k * grid, (k + 1) * grid)
        max_mu = max(abs(mu_i - mu_cf(value)) for mu_i, value in zip(mu[part], values))
        out[family] = float(deviation[part].max()), max_mu
    return out


def spa_verify_report(seed: int = 20260824, n_states: int = 1000, grid: int = 21):
    """Build the SPA compatibility report; (text, all_affine_invariants_ok)."""
    lines = ["SPA-PT verification report", "=" * 26]
    ok = True

    res = spa.COMPLETENESS_RESIDUAL
    lines.append(f"POVM completeness residual: {res:.3e}")

    max_dev, max_trace_rel = random_pair_residuals(seed, n_states)
    lines.append(f"compositional vs affine max deviation ({n_states} random states): {max_dev:.3e}")
    lines.append(f"affine trace-relation residual ({n_states} random (rho, P) pairs): {max_trace_rel:.3e}")
    if max_trace_rel > linalg.RESIDUAL_TOL:
        ok = False
    if max_dev > linalg.RESIDUAL_TOL:
        lines.append("NOTE: compositional path deviates from affine beyond 1e-10")

    for family, (max_lit, max_mu) in _literal_grid_deviations(grid).items():
        lines.append(
            f"paper-literal vs affine max entry deviation on {family} grid: {max_lit:.3e}"
        )
        lines.append(
            f"paper-literal mu_min vs closed form on {family} grid: {max_mu:.3e}"
        )

    for method in spa.CHOI_METHODS:
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


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and then shared by every run() call.

    Sharing is safe: parse_args starts a fresh Namespace each call, every
    default is immutable, no action mutates the parser, and help and usage
    errors look up sys.stdout / sys.stderr when they are written.
    """
    parser = _Parser(prog="spaneg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's name -> its own parser, for run()

    def add_common(p, state=False, seed=False, sweep=False, rand=False, sim=False):
        if state:
            p.add_argument("--family", choices=states.FAMILIES, default=None)
            p.add_argument("--state", default=None, help="path to a JSON state file")
            p.add_argument("--param", type=float, default=None)
        if seed:
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
    p.add_argument("--family", choices=sorted(curves.ND_CLOSED), required=True)
    add_common(sub.add_parser("random-study", help="random-ensemble invariant study (CSV)"), seed=True, rand=True)
    add_common(
        sub.add_parser("simulate", help="finite-shot estimation of one state"), state=True, seed=True, sim=True
    )
    add_common(sub.add_parser("spa-verify", help="SPA construction compatibility report"), seed=True)
    return parser


def _check_limits(args) -> None:
    """Reject an integer flag outside its _LIMITS range as a usage error."""
    for name, (least, greatest) in _LIMITS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < least:
            raise UsageError(f"--{name} must be >= {least}, got {value}")
        if greatest is not None and value > greatest:
            raise UsageError(f"--{name} must be <= {greatest}, got {value}")


_DISPATCH = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "random-study": cmd_random_study,
    "simulate": cmd_simulate,
    "spa-verify": cmd_spa_verify,
}


def run(argv=None) -> int:
    """Run one request, argv or sys.argv[1:]; return its exit code.

    A subcommand named first is parsed by its own parser alone: the top-level
    parser would pass it the same tokens, "--" included, and word its errors
    the same.  Any other argv goes to the top-level parser.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv else None
        if command in parser.commands:
            args = parser.commands[command].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
        _check_limits(args)
        return _DISPATCH[command](args)
    except SystemExit as exc:
        # --help prints its text and then exits through argparse's SystemExit.
        return exc.code
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
