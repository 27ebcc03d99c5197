"""Command-line front end.

Subcommands: ``generators``, ``polytope``, ``mutate``, ``git``, ``param``.
Exit codes: 0 success, 2 validation error, 3 certificate failure (sphere,
generator oracle or parameter sweep), 4 illegal operation.  Reports are
canonical JSON (sorted keys, fixed formatting) on stdout, so identical
command lines with identical seeds produce byte-identical output; timings
go to stderr.  Only errors raised by the package (``MulticurveError``) map
to exit codes 2 and 4; anything else is a bug and propagates.  numpy is
imported only by the float ``param`` sweeps, never by an exact command.
"""

import argparse
import functools
import json
import random
import sys
import time

from . import (
    classify_partition,
    cone_face_lattice,
    degree,
    enumerate_barbell_trees,
    equivariance_check,
    eta_matrix,
    evaluate_F,
    flip,
    fricke_verify,
    gamma_involution,
    indecomposables,
    is_nondegenerate,
    load,
    mutation_transfer,
    polystable_splits,
    quadric_point,
    relative_complex,
    sphere_certificate,
    tau_matrix,
    toric_polytope,
)
from . import quadric as q
from .errors import FlipIllegal, MulticurveError
from .export import complex_to_json, complex_to_off, complex_to_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_ILLEGAL = 4


def _emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _load_triangulation(source):
    try:
        return load(source)
    except OSError as err:
        raise MulticurveError(f"no fixture or readable file named {source!r}: "
                              f"{err.strerror}") from None


def _parse_ints(text, option):
    """Comma-separated integers of a command-line option."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise MulticurveError(
            f"{option} needs comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------


def cmd_generators(args):
    if args.oracle_depth < 0:
        raise MulticurveError(
            f"--oracle-depth must be at least 0, got {args.oracle_depth}")
    tri = _load_triangulation(args.source)
    barbells = enumerate_barbell_trees(tri)
    report = {
        "command": "generators",
        "input": args.source,
        "genus": tri.genus,
        "punctures": tri.punctures,
        "count": len(barbells),
        "generators": [b.to_json_dict() for b in barbells],
    }
    code = EXIT_OK
    if args.oracle_depth:
        emitted = {b.coloring.values for b in barbells
                   if b.degree <= args.oracle_depth}
        mismatches = [list(v) for v in sorted(
            set(indecomposables(tri, args.oracle_depth)) ^ emitted)]
        report["oracle"] = {"depth": args.oracle_depth,
                            "mismatches": mismatches}
        if mismatches:
            code = EXIT_CERTIFICATE
    _emit(report)
    return code


def cmd_polytope(args):
    tri = _load_triangulation(args.source)
    if bool(args.emit) != bool(args.out):
        raise MulticurveError("--emit requires --out FILE" if args.emit
                              else "--out needs --emit")
    if args.check_sphere is not None and args.check_sphere < 0:
        raise MulticurveError(
            f"--check-sphere must be at least 0, got {args.check_sphere}")
    relative = args.relative or args.check_sphere is not None
    if args.emit and not relative:
        raise MulticurveError("--emit needs --relative or --check-sphere")
    if not relative:
        lattice = cone_face_lattice(tri)
        _emit({
            "command": "polytope",
            "input": args.source,
            "kind": "cone",
            "rays": [list(r.values) for r in lattice.rays],
            "num_faces": sum(map(len, lattice.faces_by_dim)),
            "dimension": lattice.dimension,
            "faces_per_dim": {str(d): len(faces) for d, faces
                              in enumerate(lattice.faces_by_dim)},
        })
        return EXIT_OK

    cpx = relative_complex(tri)
    report = {
        "command": "polytope",
        "input": args.source,
        "kind": "relative",
        "f_vector": list(cpx.f_vector()),
        "homology": [{"betti": b, "torsion": tors}
                     for b, tors in cpx.homology()],
        "complex": cpx.to_json_dict(),
    }
    code = EXIT_OK
    if args.check_sphere is not None:
        cert = sphere_certificate(cpx, args.check_sphere)
        report["sphere_certificate"] = cert.to_json_dict()
        if not cert.granted:
            code = EXIT_CERTIFICATE
    if args.emit:
        writer = {"json": complex_to_json, "off": complex_to_off,
                  "svg": complex_to_svg}[args.emit]
        try:
            with open(args.out, "w") as fh:
                fh.write(writer(cpx))
        except OSError as err:
            raise MulticurveError(f"cannot write {args.out!r}: "
                                  f"{err.strerror}") from None
    _emit(report)
    return code


def cmd_mutate(args):
    tri = _load_triangulation(args.source)
    flipped = flip(tri, args.edge)
    report = {
        "command": "mutate",
        "input": args.source,
        "edge": args.edge,
        "flipped": flipped.to_json_dict(),
    }
    if args.coloring:
        values = _parse_ints(args.coloring, "--coloring")
        out = mutation_transfer(tri, args.edge, values)
        report["coloring"] = {
            "before": values,
            "after": list(out.values),
            "degree_before": degree(tri, values),
            "degree_after": degree(flipped, out),
        }
    if args.verify_betti:
        betti = [[b for b, _t in relative_complex(t).homology()]
                 for t in (tri, flipped)]
        report["betti"] = {"before": betti[0], "after": betti[1],
                           "equal": betti[0] == betti[1]}
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _parse_partition(text):
    """Blocks like "12|3|4" (1-based, single digits) or "1,2|3|4"."""
    blocks = []
    for chunk in text.split("|"):
        items = chunk if "," in chunk else ",".join(chunk.strip())
        option = f"--partition {text!r}"
        blocks.append({i - 1 for i in _parse_ints(items, option)})
    return blocks


def cmd_git(args):
    weights = tuple(_parse_ints(args.weights, "--weights"))
    report = {"command": "git classify", "weights": list(weights),
              "nondegenerate": is_nondegenerate(weights)}
    if args.partition:
        blocks = _parse_partition(args.partition)
        result = classify_partition(weights, blocks)
        report["partition"] = args.partition
        report["stability"] = str(result)
    if args.polystable:
        report["polystable_splits"] = [
            [[i + 1 for i in a], [i + 1 for i in b]]
            for a, b in polystable_splits(weights)]
    if args.toric:
        report["toric_polytope"] = toric_polytope(weights).to_json_dict()
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _float_param_sweep(n, seed):
    """Largest residual of each identity over one seeded numpy sweep;
    tau and eta run on every sample of the same arrays."""
    import numpy as np
    rng = np.random.default_rng(seed)
    p = q.float_point_arrays(rng, n)
    pt = q.float_point_arrays(rng, n)
    rho = q.float_mobius_arrays(rng, n)
    cp = q.float_conic_arrays(rng, n)
    rep = equivariance_check(rho, p, pt, cp)
    qp = quadric_point(p, pt, cp)
    det_r, tr_r = q.quadric_identity_residuals(qp, cp)
    # gamma involution invariance of F for a single factor
    t_last = rng.standard_normal(n)
    f0 = evaluate_F([p, pt], [cp], t_last)
    pts2, cps2 = gamma_involution(1, [p, pt], [cp])
    f1 = evaluate_F(pts2, cps2, t_last)
    scale = np.maximum(1.0, np.abs(f0))
    # tau as the point (p, conj p) of the upper conic; eta unitarity
    t = rng.uniform(-1.99, 1.99, n)
    conj = q.ProjectivePoint(p.x1.conjugate(), p.x2.conjugate())
    tau_res = q.projective_residual(
        tau_matrix(p, t).coords(),
        quadric_point(p, conj, q.conic_from_t_elliptic(t)).coords())
    em = eta_matrix(p, t)
    ct = ((em[0][0].conjugate(), em[1][0].conjugate()),
          (em[0][1].conjugate(), em[1][1].conjugate()))
    eta_res = q.mat_max_abs(q.mat_sub(q.mat_mul(em, ct), ((1, 0), (0, 1))))
    return {
        "equivariance": rep.residual,
        "det": float(np.max(np.abs(det_r))),
        "trace": float(np.max(np.abs(tr_r))),
        "gamma": float(np.max(np.abs(f1 - f0) / scale)),
        "tau": float(np.max(tau_res)),
        "eta_unitary": eta_res,
    }


def _exact_param_sweep(samples, rng):
    """Failed identities over seeded exact samples, on the integer
    representatives of the drawn rationals: every identity is homogeneous
    in each representative, so it holds exactly when it holds on them."""
    failures = 0
    for _ in range(samples):
        p = q.random_point_int(rng)[0]
        pt = q.random_point_int(rng)[0]
        rho = q.random_mobius_int(rng)
        cp = q.conic_from_beta(*q.random_ratio(rng, nonzero=True))
        if not equivariance_check(rho, p, pt, cp):
            failures += 1
        qp = quadric_point(p, pt, cp)
        det_r, tr_r = q.quadric_identity_residuals(qp, cp)
        if det_r != 0 or tr_r != 0:
            failures += 1
        # td F = td tr A - tn e for one factor and t_last = tn / td
        tn, td = q.random_ratio(rng)
        (p2, pt2), (cp2,) = gamma_involution(1, [p, pt], [cp])
        qp2 = quadric_point(p2, pt2, cp2)
        if (td * q.mat_trace(qp2.a) - tn * qp2.e
                != td * q.mat_trace(qp.a) - tn * qp.e):
            failures += 1
    return failures


def _exact_fricke_sweep(samples, rng):
    """Number of seeded integer map triples off the Fricke cubic."""
    return sum(fricke_verify(*(q.random_mobius_int(rng) for _ in range(3)))
               != 0 for _ in range(samples))


def cmd_param(args):
    if args.samples < 1:
        raise MulticurveError(
            f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise MulticurveError(f"--seed must be at least 0, got {args.seed}")
    t0 = time.time()
    report = {"command": f"param {args.action}", "backend": args.backend,
              "samples": args.samples, "seed": args.seed}
    if args.action == "check" and args.backend == "float":
        worst = _float_param_sweep(args.samples, args.seed)
        tol = q.FLOAT_TOL
        report.update(
            tolerance=tol,
            max_residuals={k: f"{v:.3e}" for k, v in worst.items()},
            failures=sum(1 for v in worst.values() if not v <= tol))
    elif args.action == "check":
        report["failures"] = _exact_param_sweep(args.samples,
                                                random.Random(args.seed))
    elif args.backend == "float":
        import numpy as np
        rng_np = np.random.default_rng(args.seed)
        maps = [q.float_mobius_arrays(rng_np, args.samples)
                for _ in range(3)]
        a, c = q.fricke_trace_coordinates(*maps)
        res = abs(q._cubic(*a, *c, 1))
        bound = 1e-9 * q._fricke_scale(a, c)
        report.update(max_residual=f"{float(np.max(res)):.3e}",
                      failures=int(np.sum(~(res <= bound))))
    else:
        report["failures"] = _exact_fricke_sweep(args.samples,
                                                 random.Random(args.seed))
    _emit(report)
    print(f"elapsed {time.time() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK if report.get("failures", 0) == 0 else EXIT_CERTIFICATE


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="multicurve",
        description="multicurve monoids, boundary polytopes, and trace "
                    "parametrization checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generators",
                           help="enumerate barbell-tree generators")
    p_gen.add_argument("source", help="fixture name or triangulation JSON")
    p_gen.add_argument("--oracle-depth", type=int, default=0,
                       help="also list the colorings up to this degree "
                            "where a sieve for indecomposables disagrees "
                            "with the generators (at least 0; 0, the "
                            "default, is off)")
    p_gen.set_defaults(func=cmd_generators)

    p_poly = sub.add_parser("polytope", help="cone lattice or relative "
                                             "complex reports")
    p_poly.add_argument("source")
    p_poly.add_argument("--relative", action="store_true")
    p_poly.add_argument("--check-sphere", type=int, default=None,
                        metavar="D",
                        help="certify the relative complex as a D-sphere "
                             "(D at least 0)")
    p_poly.add_argument("--emit", choices=["json", "off", "svg"],
                        help="write the relative complex to --out; needs "
                             "--relative or --check-sphere")
    p_poly.add_argument("--out", help="file for --emit output")
    p_poly.set_defaults(func=cmd_polytope)

    p_mut = sub.add_parser("mutate", help="flip an edge, transfer colorings")
    p_mut.add_argument("source")
    p_mut.add_argument("edge", type=int)
    p_mut.add_argument("--coloring", help="comma-separated color vector")
    p_mut.add_argument("--verify-betti", action="store_true")
    p_mut.set_defaults(func=cmd_mutate)

    p_git = sub.add_parser("git", help="stability of weighted points")
    git_sub = p_git.add_subparsers(dest="action", required=True)
    p_cls = git_sub.add_parser("classify")
    p_cls.add_argument("--weights", required=True)
    p_cls.add_argument("--partition")
    p_cls.add_argument("--polystable", action="store_true")
    p_cls.add_argument("--toric", action="store_true")
    p_cls.set_defaults(func=cmd_git)

    p_par = sub.add_parser("param", help="parametrization identity sweeps")
    par_sub = p_par.add_subparsers(dest="action", required=True)
    for action in ("check", "fricke"):
        pp = par_sub.add_parser(action)
        pp.add_argument("--samples", type=int, default=1000,
                        help="number of samples (at least 1)")
        pp.add_argument("--seed", type=int, default=0,
                        help="seed of the sample draws (at least 0)")
        pp.add_argument("--backend", choices=["exact", "float"],
                        default="float")
        pp.set_defaults(func=cmd_param)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlipIllegal as err:
        print(f"illegal operation: {err}", file=sys.stderr)
        return EXIT_ILLEGAL
    except MulticurveError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
