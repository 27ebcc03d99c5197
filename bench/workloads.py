"""Seeded workloads: their inputs, their jobs and the checks on each job.

A workload is built one round at a time.  A round is a fixed mix of jobs
whose inputs are drawn from the seeded generator; the benchmark runs whole
rounds, so every run of a workload measures the same mix of job kinds.
Inputs reach the program as fixture names or JSON text (``load`` accepts
both), never as in-memory objects.

Every job returns its output and is then checked; a check returns ``None``
or a one-line description of what is wrong, and a check that raises (say on
a report missing a key) fails its job too.  Checks run outside the timed
region, and may call the package (for example the brute-force
``is_indecomposable`` oracle), with tracing paused.
"""

import contextlib
import io
import json
import random

# Cone face counts per dimension and relative-complex f-vectors of the
# lattice inputs, by isomorphism class.  A neighbour class is named by its
# base and the smallest edge whose flip lands in it.  These are invariants of
# the inputs: a relabelled copy or another flip in the same class gives the
# same numbers.
EXPECTED_LATTICE = {
    "flower:6": {"cone": [1, 15, 95, 346, 819, 1338, 1554, 1296, 771, 319,
                          87, 14, 1],
                 "relative": [10, 35, 61, 59, 32, 9]},
    "flower:6~0": {"cone": [1, 18, 126, 488, 1199, 1996, 2324, 1912, 1103,
                            434, 110, 16, 1],
                   "relative": [13, 51, 96, 99, 57, 16]},
    "flower:6~4": {"cone": [1, 19, 135, 523, 1276, 2101, 2415, 1961, 1118,
                            436, 110, 16, 1],
                   "relative": [14, 55, 102, 103, 58, 16]},
    "flower:6~6": {"cone": [1, 18, 126, 488, 1199, 1996, 2324, 1912, 1103,
                            434, 110, 16, 1],
                   "relative": [13, 51, 96, 99, 57, 16]},
    "flower:5": {"cone": [1, 10, 43, 105, 161, 161, 105, 43, 10, 1],
                 "relative": [6, 13, 13, 6]},
    "flower:5~0": {"cone": [1, 12, 58, 152, 241, 241, 152, 58, 12, 1],
                   "relative": [8, 20, 22, 10]},
    "flower:5~8": {"cone": [1, 10, 43, 105, 161, 161, 105, 43, 10, 1],
                   "relative": [6, 13, 13, 6]},
}


class Job:
    """One closed-loop request: ``run()`` is timed, ``check(out)`` is not."""

    __slots__ = ("label", "argv", "run", "check")

    def __init__(self, label, run, check, argv=None):
        self.label = label
        self.run = run
        self.check = check
        self.argv = argv


# ---------------------------------------------------------------------------
# seeded inputs


def random_triangulation(mc, rng, triangles, genera):
    """Random slot pairing passed to ``build``, retried until it is a valid
    connected surface whose genus lies in ``genera``."""
    while True:
        slots = list(range(3 * triangles))
        rng.shuffle(slots)
        pairs = [(slots[2 * i], slots[2 * i + 1])
                 for i in range(len(slots) // 2)]
        try:
            tri = mc.build(triangles, pairs)
        except mc.errors.TriangulationError:
            continue
        if tri.genus in genera:
            return tri


def relabel(tri, rng):
    """JSON text of a seeded isomorphic copy of ``tri``.

    Triangles are permuted and the slots of each triangle rotated
    cyclically, which keeps the counterclockwise slot order, so the copy is
    the same oriented surface with a different edge order once loaded.
    """
    perm = list(range(tri.triangle_count))
    rng.shuffle(perm)
    rot = [rng.randrange(3) for _ in perm]

    def slot(s):
        t, k = divmod(s, 3)
        return [perm[t], (k - rot[t]) % 3]

    pairs = [[slot(a), slot(b)] for a, b in tri.edges]
    rng.shuffle(pairs)
    return json.dumps({"triangles": tri.triangle_count, "gluing": pairs})


def legal_flips(mc, tri):
    out = []
    for e in range(tri.num_edges):
        try:
            mc.flip(tri, e)
        except mc.errors.FlipIllegal:
            continue
        out.append(e)
    return out


def neighbour_classes(mc, tri):
    """Legal flip edges of ``tri`` grouped by the isomorphism class of the
    flipped triangulation: ``(edges, is_tri)`` pairs by smallest edge, where
    ``is_tri`` says whether the class is that of ``tri`` itself."""
    own = mc.triangulation.canonical_form(tri)
    groups = {}
    for e in legal_flips(mc, tri):
        key = mc.triangulation.canonical_form(mc.flip(tri, e))
        groups.setdefault(key, []).append(e)
    return sorted((edges, key == own) for key, edges in groups.items())


def edges_to(mc, source, target_form):
    """Legal edges of ``source`` whose flip is isomorphic to the target."""
    return [e for e in legal_flips(mc, source)
            if mc.triangulation.canonical_form(mc.flip(source, e))
            == target_form]


def seeded_coloring(mc, tri, rng):
    """A sum of one to three seeded generators: admissible by construction
    of the monoid, and never zero."""
    gens = mc.enumerate_barbell_trees(tri)
    values = [0] * tri.num_edges
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens).coloring.values
        values = [a + b for a, b in zip(values, g)]
    return values


def sphere_dim(tri):
    return 6 * tri.genus - 7 + 2 * tri.punctures


# ---------------------------------------------------------------------------
# job kinds


def cli_job(mc, label, argv, check):
    """A command line run in-process; output is (exit code, stdout)."""
    argv = list(argv)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = mc.cli.main(argv)
        return code, out.getvalue()

    return Job(label, run, check, argv)


def golden_job(mc, name, argv, text):
    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if stdout != text:
            return f"stdout differs from golden {name}"
        return None

    return cli_job(mc, "golden:" + name, argv, check)


def _report(out):
    code, stdout = out
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(stdout)


def polytope_sphere_job(mc, label, source, tri):
    d = sphere_dim(tri)

    def check(out):
        cert = _report(out)["sphere_certificate"]
        if not cert["granted"] or cert["dim"] != d:
            return f"certificate not granted at d={d}"
        return None

    return cli_job(mc, label, ["polytope", source, "--relative",
                               "--check-sphere", str(d)], check)


def mutate_job(mc, label, source, tri, edge, target_form, rng):
    """``mutate --verify-betti`` on a seeded coloring of ``tri``, the
    triangulation ``source`` loads to; the flip must land in the class
    ``target_form``."""
    values = seeded_coloring(mc, tri, rng)

    def check(out):
        rep = _report(out)
        reported = mc.triangulation.from_json_dict(rep["flipped"])
        if mc.triangulation.canonical_form(reported) != target_form:
            return "flipped triangulation is not the expected neighbour"
        col = rep["coloring"]
        if col["before"] != values or col["degree_before"] != sum(values):
            return "coloring before the flip was not echoed"
        # the transferred coloring is indexed by the source's edges, which
        # flip keeps; reloading the reported JSON would re-sort them
        if (not mc.is_admissible(mc.flip(tri, edge), col["after"])
                or col["degree_after"] != sum(col["after"])):
            return "transferred coloring is not admissible"
        betti = rep["betti"]
        if betti["before"] != betti["after"] or betti["equal"] is not True:
            return f"betti changed: {betti['before']} -> {betti['after']}"
        return None

    argv = ["mutate", source, str(edge), "--verify-betti",
            "--coloring", ",".join(map(str, values))]
    return cli_job(mc, label, argv, check)


def lattice_job(mc, label, source, key):
    """``cone_face_lattice`` on the loaded source, checked against the
    class's face counts and the Euler relation of a pointed cone."""
    expected = EXPECTED_LATTICE[key]["cone"]

    def run():
        return mc.cone_face_lattice(mc.load(source))

    def check(lattice):
        per_dim = [len(lattice.faces_of_dim(k))
                   for k in range(lattice.dimension + 1)]
        if per_dim != expected:
            return f"cone faces per dim {per_dim} != {expected}"
        if sum((-1) ** k * f for k, f in enumerate(per_dim)) != 0:
            return "cone face counts break the Euler relation"
        return None

    return Job(label, run, check)


def relative_job(mc, label, source, key):
    """``relative_complex`` on the loaded source, checked for its f-vector,
    connectivity, the pseudomanifold count and the Euler characteristic
    1 + (-1)^d of a d-sphere."""
    expected = EXPECTED_LATTICE[key]["relative"]
    d = len(expected) - 1

    def run():
        return mc.relative_complex(mc.load(source))

    def check(cpx):
        fv = list(cpx.f_vector())
        if fv != expected:
            return f"f-vector {fv} != {expected}"
        if not cpx.is_connected():
            return "relative complex is not connected"
        cofaces = {}
        for top in cpx.cells_of_dim(d):
            for ridge in cpx.boundary_cells(top):
                cofaces[ridge] = cofaces.get(ridge, 0) + 1
        ridges = cpx.cells_of_dim(d - 1)
        if sum(1 for r in ridges if cofaces.get(r) == 2) != len(ridges):
            return "not a pseudomanifold"
        if sum((-1) ** k * f for k, f in enumerate(fv)) != 1 + (-1) ** d:
            return "Euler characteristic is not that of a sphere"
        return None

    return Job(label, run, check)


def cone_report_job(mc, label, source, key):
    expected = EXPECTED_LATTICE[key]["cone"]

    def check(out):
        rep = _report(out)
        per_dim = [rep["faces_per_dim"][str(k)]
                   for k in range(rep["dimension"] + 1)]
        if per_dim != expected or rep["num_faces"] != sum(expected):
            return f"cone faces per dim {per_dim} != {expected}"
        if len(rep["rays"]) != expected[1]:
            return "ray count differs from the 1-dimensional faces"
        return None

    return cli_job(mc, label, ["polytope", source], check)


def generators_job(mc, label, source, tri, shared, oracle_depth=0):
    """``generators`` on ``source``.  Every emitted generator must be
    admissible, distinct, of the stated degree and, by the brute-force
    oracle, indecomposable; an oracle sweep must report no mismatch.  The
    generators are left in ``shared`` for a following tracing job."""
    argv = ["generators", source]
    if oracle_depth:
        argv += ["--oracle-depth", str(oracle_depth)]

    def check(out):
        rep = _report(out)
        gens = [g["coloring"] for g in rep["generators"]]
        shared["generators"] = gens
        if rep["count"] != len(gens) or not gens:
            return "generator count mismatch"
        if len({tuple(g) for g in gens}) != len(gens):
            return "duplicate generators"
        for g, item in zip(gens, rep["generators"]):
            if item["degree"] != sum(g) or not mc.is_admissible(tri, g):
                return f"generator {g} is not admissible of its degree"
            if not mc.is_indecomposable(tri, g):
                return f"generator {g} decomposes"
        if oracle_depth and rep["oracle"]["mismatches"]:
            return f"oracle mismatches {rep['oracle']['mismatches'][:3]}"
        return None

    return cli_job(mc, label, argv, check)


def tracing_job(mc, label, tri, shared, offset):
    """Library tracing of the generators left in ``shared``: each must be
    one strand cycle, and ``strip_peripheral(g + a_i)`` must remove one
    copy of a_i more than g itself holds."""

    def run():
        loops = mc.peripheral_colorings(tri)
        out = []
        for idx, g in enumerate(shared["generators"]):
            i = (offset + idx) % tri.punctures
            comps = mc.trace_components(tri, g)
            _, counts = mc.strip_peripheral(
                tri, [a + b for a, b in zip(g, loops[i].values)])
            out.append((g, comps, i, counts))
        return out

    def check(out):
        if len(out) != len(shared["generators"]):
            return "not every generator was traced"
        for g, comps, i, counts in out:
            if len(comps) != 1:
                return f"generator {g} traces to {len(comps)} components"
            expected = [0] * tri.punctures
            if comps[0].peripheral is not None:
                expected[comps[0].peripheral] += 1
            expected[i] += 1
            if counts != expected:
                return f"strip_peripheral({g} + a_{i}) counts {counts}"
        return None

    return Job(label, run, check)


def param_job(mc, label, action, backend, samples, seed):
    def check(out):
        rep = _report(out)
        if (rep["samples"], rep["seed"], rep["backend"]) != (
                samples, seed, backend):
            return "report does not echo its arguments"
        if rep["failures"] != 0:
            return f"{rep['failures']} failures"
        return None

    argv = ["param", action, "--samples", str(samples), "--seed", str(seed),
            "--backend", backend]
    return cli_job(mc, label, argv, check)


def git_job(mc, label, weights, blocks, toric):
    """``git classify`` on seeded weights, checked against the stability
    rule and a bitmask enumeration of the balanced two-block splits."""
    m, total = len(weights), sum(weights)
    sums = [sum(weights[i] for i in b) for b in blocks]
    expected_stability = (
        "Unstable" if any(2 * s > total for s in sums) else
        "StrictlySemistable" if any(2 * s == total for s in sums) else
        "Stable")
    balanced = sum(
        1 for mask in range(1, 2 ** m - 1, 2)
        if 2 * sum(w for i, w in enumerate(weights) if mask >> i & 1)
        == total)
    partition = "|".join(",".join(str(i + 1) for i in sorted(b))
                         for b in blocks)
    argv = ["git", "classify", "--weights", ",".join(map(str, weights)),
            "--partition", partition, "--polystable"]
    if toric:
        argv.append("--toric")

    def check(out):
        rep = _report(out)
        if rep["stability"] != expected_stability:
            return f"stability {rep['stability']} != {expected_stability}"
        splits = rep["polystable_splits"]
        if len(splits) != balanced:
            return f"{len(splits)} polystable splits, expected {balanced}"
        for a, b in splits:
            if (sorted(a + b) != list(range(1, m + 1))
                    or sum(weights[i - 1] for i in a) * 2 != total):
                return f"split {a}|{b} is not balanced"
        if toric:
            pair = rep["toric_polytope"]["dominant_pair"]
            pairs = weights[::2]
            if 2 * pairs[pair] <= sum(pairs):
                return "toric polytope names a pair that does not dominate"
        return None

    return cli_job(mc, label, argv, check)


# ---------------------------------------------------------------------------
# workloads


def _units_to_jobs(units, rng):
    """Shuffle units (job sequences that must stay in order) and flatten."""
    rng.shuffle(units)
    return [job for unit in units for job in unit]


class Workload:
    """Base: ``prepare`` makes the round-independent inputs once, ``round``
    draws one round's seeded inputs and returns its jobs.  ``round_seconds``
    is the nominal duration of a round, which sets how many rounds a run of
    a given length measures; ``trace_rounds`` is the number of rounds in a
    traced run."""

    name = ""
    golden_commands = ()
    round_seconds = 1.0
    trace_rounds = 1

    def __init__(self, mc, goldens):
        self.mc = mc
        self.goldens = [(name, argv, text) for name, argv, text in goldens
                        if argv[0] in self.golden_commands]
        self.prepare()

    def prepare(self):
        pass

    def golden_units(self):
        return [[golden_job(self.mc, name, argv, text)]
                for name, argv, text in self.goldens]


class Spheres(Workload):
    name = "spheres"
    golden_commands = ("polytope", "mutate")
    round_seconds = 25.0

    def prepare(self):
        mc = self.mc
        self.f5 = mc.fixture("flower:5")
        self.f5_form = mc.triangulation.canonical_form(self.f5)
        # flower:5 has one neighbour class isomorphic to itself and one
        # with a larger complex
        classes = neighbour_classes(mc, self.f5)
        self.same = next(edges for edges, same in classes if same)
        self.other = next(edges for edges, same in classes if not same)
        self.small = {name: mc.fixture(name)
                      for name in ("n4ex", "n4ex2", "ex11", "flower:4")}
        self.small_edges = {name: neighbour_classes(mc, tri)[0][0]
                            for name, tri in self.small.items()}

    def _json(self, tri, rng):
        """A relabelled copy as JSON, with the triangulation it loads to."""
        text = relabel(tri, rng)
        return text, self.mc.load(text)

    def round(self, rng):
        mc, f5, f5_form = self.mc, self.f5, self.f5_form
        units = self.golden_units()
        # thirteen jobs on flower:5 and its neighbours, so that job_tail_s
        # falls on one of them: a copy and each neighbour get a sphere
        # certificate and a flip back into the class of flower:5
        e_a, e_b = rng.choice(self.other), rng.choice(self.same)
        for tag, e in (("a", e_a), ("b", e_b)):
            flipped = mc.flip(f5, e)
            units.append([mutate_job(
                mc, f"mutate:flower:5->{tag}", "flower:5", f5, e,
                mc.triangulation.canonical_form(flipped), rng)])
        for tag, tri in (("copy", f5), ("a", mc.flip(f5, e_a)),
                         ("b", mc.flip(f5, e_b)), ("b", mc.flip(f5, e_b))):
            source = self._json(tri, rng)
            units.append([polytope_sphere_job(
                mc, f"polytope:flower:5~{tag}", *source)])
            units.append([mutate_job(
                mc, f"mutate:flower:5~{tag}->back", *source,
                rng.choice(edges_to(mc, source[1], f5_form)), f5_form,
                rng)])
        # two more certificates in the class of flower:5, the cheapest
        # large job: with thirteen large jobs the tail is the middle one of
        # those six, not the fastest
        for _ in range(2):
            units.append([polytope_sphere_job(
                mc, "polytope:flower:5~copy", *self._json(f5, rng))])
        # thirty-two small ones, which hold the median: the same four jobs,
        # twice, on each small fixture
        for name, tri in 2 * list(self.small.items()):
            form = mc.triangulation.canonical_form(tri)
            e = rng.choice(self.small_edges[name])
            flipped = mc.flip(tri, e)
            nb = self._json(flipped, rng)
            units.append([polytope_sphere_job(
                mc, f"polytope:{name}~copy", *self._json(tri, rng))])
            units.append([polytope_sphere_job(mc, f"polytope:{name}~nb",
                                              *nb)])
            units.append([mutate_job(
                mc, f"mutate:{name}", name, tri, e,
                mc.triangulation.canonical_form(flipped), rng)])
            units.append([mutate_job(
                mc, f"mutate:{name}~nb->back", *nb,
                rng.choice(edges_to(mc, nb[1], form)), form, rng)])
        return _units_to_jobs(units, rng)


class Lattice(Workload):
    name = "lattice"
    round_seconds = 22.0
    kinds = (("lattice", lattice_job), ("relative", relative_job))

    def prepare(self):
        mc = self.mc
        self.bases = {name: mc.fixture(name)
                      for name in ("flower:6", "flower:5")}
        self.f5_classes = [edges for edges, _same in
                           neighbour_classes(mc, self.bases["flower:5"])]
        self.f6_others = [edges for edges, same in
                          neighbour_classes(mc, self.bases["flower:6"])
                          if not same]

    def _neighbour(self, base, edges, rng):
        """Seeded flip of ``base`` within a class, as relabelled JSON."""
        e = rng.choice(edges)
        tri = self.bases[base]
        return relabel(self.mc.flip(tri, e), rng), f"{base}~{edges[0]}"

    def round(self, rng):
        mc = self.mc
        f6 = self.bases["flower:6"]
        units = [[cone_report_job(mc, "cone:flower:6", "flower:6",
                                  "flower:6")],
                 [relative_job(mc, "relative:flower:6", "flower:6",
                               "flower:6")],
                 [cone_report_job(mc, "cone:flower:5", "flower:5",
                                  "flower:5")]]
        # flower:6 jobs take seconds each, and relabelling one changes its
        # cost by up to 40 % (the rational eliminations depend on the edge
        # order), so these get fixed inputs: each neighbour class not
        # isomorphic to flower:6, flipped at its smallest edge, with the
        # same job kind every round
        for edges, (kind, job) in zip(self.f6_others,
                                      self.kinds + self.kinds[:1]):
            key = f"flower:6~{edges[0]}"
            source = json.dumps(mc.flip(f6, edges[0]).to_json_dict())
            units.append([job(mc, f"{kind}:{key}", source, key)])
        # flower:5 jobs take a tenth of that and make up most of the count;
        # fixed counts per class keep the median inside one kind of job
        for edges, picks in zip(self.f5_classes, (8, 6)):
            for kind, job in self.kinds:
                for _ in range(picks):
                    source, key = self._neighbour("flower:5", edges, rng)
                    units.append([job(mc, f"{kind}:{key}", source, key)])
        return _units_to_jobs(units, rng)


class Generators(Workload):
    name = "generators"
    golden_commands = ("generators",)
    round_seconds = 7.2
    trace_rounds = 2
    # seven of the seventeen jobs per round take under 0.03 s and seven take
    # over 0.4 s, so the median job is the middle one of the flower:5 sweeps
    # (the fixture and two relabelled copies per round), not a boundary
    # between two kinds nor a single job
    oracles = (("ex11", 12), ("n4ex", 12), ("n4ex2", 12), ("flower:5", 12),
               ("flower:6", 10))
    flower5_copies = 2

    def prepare(self):
        mc = self.mc
        self.fixtures = {name: mc.fixture(name) for name, _d in self.oracles}
        # One random T=12 surface of each genus 1, 2, 3, drawn once from a
        # fixed stream; the seed relabels them in every round.  A fresh
        # draw per seed would make the work depend on the seed: T=12 takes
        # 0.4-1.7 s per surface, and the ten or so a run has time for
        # spread jobs_per_s by 14-18 % across seeds.
        pool_rng = random.Random("generators:pool")
        self.pool = [random_triangulation(mc, pool_rng, 12, (genus,))
                     for genus in (1, 2, 3)]

    def round(self, rng):
        mc = self.mc
        units = self.golden_units()
        for name, depth in self.oracles:
            units.append([generators_job(mc, f"oracle:{name}", name,
                                         self.fixtures[name], {}, depth)])
        for _ in range(self.flower5_copies):
            text = relabel(self.fixtures["flower:5"], rng)
            units.append([generators_job(mc, "oracle:flower:5~copy", text,
                                         mc.load(text), {}, 12)])
        for base in self.pool:
            text = relabel(base, rng)
            tri = mc.load(text)
            shared = {"generators": []}
            label = f"T12:g{tri.genus}"
            units.append([
                generators_job(mc, "generators:" + label, text, tri, shared),
                tracing_job(mc, "tracing:" + label, tri, shared,
                            rng.randrange(tri.punctures))])
        return _units_to_jobs(units, rng)


class Param(Workload):
    name = "param"
    golden_commands = ("param", "git")
    round_seconds = 0.17
    trace_rounds = 20
    sizes = {("check", "exact"): (30, 70), ("check", "float"): (1000, 3000),
             ("fricke", "exact"): (100, 300),
             ("fricke", "float"): (2000, 8000)}

    def round(self, rng):
        mc = self.mc
        units = self.golden_units()
        for (action, backend), (lo, hi) in self.sizes.items():
            units.append([param_job(mc, f"param:{action}:{backend}", action,
                                    backend, rng.randint(lo, hi),
                                    rng.randrange(10 ** 6))])
        # a random configuration, and a symmetric one with a dominant pair
        m = rng.randint(3, 9)
        weights = [rng.randint(1, 5) for _ in range(m)]
        pairs = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        pairs[rng.randrange(len(pairs))] = sum(pairs) + rng.randint(1, 3)
        for label, w, toric in (("git:random", weights, False),
                                ("git:toric", [b for b in pairs
                                               for _ in (0, 1)], True)):
            owner = [rng.randrange(len(w)) for _ in w]
            blocks = [{i for i, o in enumerate(owner) if o == b}
                      for b in sorted(set(owner))]
            units.append([git_job(mc, label, w, blocks, toric)])
        return _units_to_jobs(units, rng)


WORKLOADS = {w.name: w for w in (Spheres, Lattice, Generators, Param)}


def make_rng(workload, seed):
    """The workload's input stream: the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}")
