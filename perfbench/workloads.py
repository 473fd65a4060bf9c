"""The benchmark's four workloads: certified fixtures, op pools, oracle checks.

Each workload has a `build(seed)` that makes its models, constraint
sets, workspaces and op pool from public constructors (this is the
set-up the benchmark times), and the returned pool carries a
`reference()` step that certifies the fixtures against the dense oracle
and attaches an output check to every op (untimed, and excluded from
set-up time).  A drawn state at which the Delassus matrix is nearly
singular is replaced by a fresh draw before it is certified (see
`_well_posed`).  Certification raises `CertificationError`, which stops
the run without a result.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written up in NOTES.md next to this file.
"""

from __future__ import annotations

import numpy as np

import pvdyn
from harness import Check, Op

QDD_TOL = 1e-8          # feasible solves, as acceptance 1 and 2
LAM_TOL = 1e-6          # multipliers, feasible or against the min-norm oracle
SINGULAR_QDD_TOL = 1e-6 # least-squares solves, as acceptance 4
OSIM_TOL = 1e-6         # Delassus operators and their applies
DRIFT_TOL = 1e-5        # anchored-link drift over a rollout segment (m, rad)

# Full-rank workloads draw only states at which the Delassus matrix's
# smallest eigenvalue is at least this: ten times the proximal weight mu
# of the default SolverSettings.  Below about mu, constrained_aba
# contracts its residual by less than half per iteration and stops at
# max_iter short of the 1e-8 feasible gate; prox-singular keeps one such
# state (NEAR_SINGULAR) so that this regime stays measured.
DELASSUS_FLOOR = 10 * pvdyn.SolverSettings().mu
REDRAWS = 20            # fresh draws tried per state before giving up

TREE = (128, 3, 0)      # tree:128:3 at generator seed 0, as on the ROADMAP grid
FD_POOL = 24            # states per fd-tree round: 96 ops, about 6 s
FD_POINTS = 8           # point constraints of fd-tree (24 rows)
# the fd-tree draw (seed, state index) whose Delassus smallest eigenvalue
# is 3.5e-7, about mu/3: constrained_aba stops at max_iter there
NEAR_SINGULAR = (1876907943, 15)
# states per osim-contacts input (humanoid, tree).  Sorted by latency a
# round's 56 ops fall into clusters: 24 humanoid pv_osim/pv_osimr/caba_osim,
# 8 humanoid LTL, 18 tree producers, 6 tree LTL.  So the median sits in the
# middle of the humanoid LTL cluster (43% to 57%) and p95 in the middle of
# the tree LTL one (89% to 100%), not at a cluster's edge.
OSIM_POOL = (8, 6)
SIM_STARTS = 4          # rollout segments per sim-humanoid round
SIM_STEPS = 5           # RK4 steps per segment
BAUMGARTE = (10.0, 100.0)
SINGULAR_SEEDS = range(50)   # the instance structures acceptance 4 grades


class CertificationError(RuntimeError):
    """A fixture does not have the rank its workload is defined on."""


class Pool(list):
    """A round of ops plus the untimed step that certifies and checks them."""

    def __init__(self, ops, reference):
        super().__init__(ops)
        self.reference = reference


# ---------------------------------------------------------------------------
# shared helpers


def _well_posed(model, cs, point, redraw, what: str):
    """`point` if the Delassus matrix at its state has smallest eigenvalue
    at least DELASSUS_FLOOR, else the first redrawn point that has."""
    for _ in range(REDRAWS):
        if np.linalg.eigvalsh(pvdyn.dense_delassus(model, point[0], cs))[0] >= DELASSUS_FLOOR:
            return point
        point = redraw()
    raise CertificationError(f"{what}: no well-conditioned state in {REDRAWS} draws")


def _rel(x, ref) -> float:
    return float(np.linalg.norm(x - ref)) / (1.0 + float(np.linalg.norm(ref)))


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _certify(model, state, cs, full_rank: bool, what: str) -> None:
    """Raise CertificationError unless the oracle finds the expected rank."""
    ref = pvdyn.kkt_oracle(model, state, np.zeros(model.nv), cs)
    if ref.full_rank != full_rank:
        want = "full rank" if full_rank else "rank deficient"
        raise CertificationError(f"{what}: expected {want}, oracle rank "
                                 f"{ref.rank} of {cs.m}")


def spread_leaves(model, count: int) -> list[int]:
    """`count` leaf links taken round-robin over the subtrees rooted at
    depth 2, deepest leaves first, so constraints sit on distinct
    branches rather than on one cluster of siblings (three sibling
    leaves would already make point constraints rank deficient)."""
    groups: dict[int, list[int]] = {}
    leaves = [i for i in range(model.n_links) if not model.children[i]]
    for leaf in sorted(leaves, key=lambda i: (-model.link_depth[i], i)):
        root = leaf
        while model.link_depth[root] > 2:
            root = model.parent[root]
        groups.setdefault(root, []).append(leaf)
    order: list[int] = []
    rank = 0
    while len(order) < count:
        row = [g[rank] for _, g in sorted(groups.items()) if rank < len(g)]
        if not row:
            raise ValueError(f"model has fewer than {count} leaves")
        order.extend(row[:count - len(order)])
        rank += 1
    return order


def tree_points(model, count: int, rng) -> "pvdyn.ConstraintSet":
    """Point constraints with seeded offsets and targets on spread leaves."""
    return pvdyn.ConstraintSet([
        pvdyn.point_constraint(link, rng.uniform(-0.2, 0.2, 3),
                               a_star=rng.uniform(-0.5, 0.5, 3))
        for link in spread_leaves(model, count)])


def _feasible_check(ref):
    def check(sol):
        q, lam = _rel(sol.qdd, ref.qdd), _rel(sol.lam, ref.lam)
        return Check(q <= QDD_TOL and lam <= LAM_TOL and _finite(sol.qdd, sol.lam),
                     lam_ok=lam <= LAM_TOL, qdd_err=q, lam_err=lam)
    return check


def _soft_check(ref_qdd):
    def check(sol):
        q = _rel(sol.qdd, ref_qdd)
        return Check(q <= QDD_TOL and _finite(sol.qdd, sol.lam), qdd_err=q)
    return check


def _singular_check(ref):
    """Least-squares solve: qdd gates the op, the multipliers are finite.

    The multipliers are also compared with the oracle's minimum-norm
    ones; that comparison is reported (lam_ok_frac), not gated, because
    the library promises finite multipliers on infeasible rows, not the
    minimum-norm ones (ROADMAP item 4)."""
    def check(sol):
        q, lam = _rel(sol.qdd, ref.qdd), _rel(sol.lam, ref.lam)
        return Check(q <= SINGULAR_QDD_TOL and _finite(sol.qdd, sol.lam),
                     lam_ok=lam <= LAM_TOL, qdd_err=q, lam_err=lam)
    return check


def _operator_check(matrix_ref, apply_ref):
    """Operator and its apply against the dense reference, both relative."""
    scale = max(1.0, float(np.abs(matrix_ref).max()))

    def check(out):
        op, lam = out
        e_mat = float(np.abs(op.matrix - matrix_ref).max()) / scale
        e_app = _rel(lam, apply_ref)
        err = max(e_mat, e_app)
        return Check(err <= OSIM_TOL and _finite(op.matrix, lam), osim_err=err)
    return check


def _damped_reference(dense, mu, rhs):
    """(Lambda + mu I)^-1 and its product with rhs, from the dense Lambda."""
    damped = np.linalg.inv(dense + mu * np.eye(dense.shape[0]))
    return damped, damped @ rhs


# ---------------------------------------------------------------------------
# fd-tree: independent constrained forward-dynamics solves


def _fd_point(model, rng):
    return (pvdyn.random_state(model, int(rng.integers(2 ** 31))),
            rng.uniform(-5.0, 5.0, model.nv))


def fd_fixture(model, seed: int, count: int = FD_POOL):
    """fd-tree's constraint set and the first `count` (state, torque)
    pairs it draws at `seed`."""
    rng = np.random.default_rng((seed, 1))
    cs = tree_points(model, FD_POINTS, rng)
    return cs, [_fd_point(model, rng) for _ in range(count)]


def build_fd_tree(seed: int) -> Pool:
    model = pvdyn.generate_tree(*TREE)
    cs, points = fd_fixture(model, seed)
    ws = pvdyn.PvWorkspace(model, cs)
    settings = pvdyn.SolverSettings()
    ops = []
    # ops read their inputs from `points` when they run, so that the
    # reference step can replace an ill-conditioned draw
    for k in range(FD_POOL):
        ops += [
            Op("pv_solve", lambda k=k: pvdyn.pv_solve(model, *points[k], cs, ws)),
            Op("pv_early_solve", lambda k=k: pvdyn.pv_early_solve(model, *points[k], cs, ws)),
            Op("pv_soft_solve",
               lambda k=k: pvdyn.pv_soft_solve(model, *points[k], cs, settings, ws)),
            Op("constrained_aba",
               lambda k=k: pvdyn.constrained_aba(model, *points[k], cs, settings, ws)),
        ]

    def reference():
        spare = np.random.default_rng((seed, 1, 1))
        for k in range(FD_POOL):
            points[k] = _well_posed(model, cs, points[k], lambda: _fd_point(model, spare),
                                    f"fd-tree state {k}")
            state, tau = points[k]
            _certify(model, state, cs, True, f"fd-tree state {k}")
            ref = pvdyn.kkt_oracle(model, state, tau, cs)
            soft = pvdyn.relaxed_kkt_oracle(model, state, tau, cs, settings.soft_R)
            exact = _feasible_check(ref)
            for op in ops[4 * k:4 * k + 4]:
                op.check = _soft_check(soft) if op.kind == "pv_soft_solve" else exact

    return Pool(ops, reference)


# ---------------------------------------------------------------------------
# sim-humanoid: RK4 rollout with welded feet and point-constrained hands


def _consistent_state(model, cs, seed: int):
    """Seeded state whose velocity satisfies the constraints (J v = 0)."""
    state = pvdyn.random_state(model, seed)
    cache = pvdyn.forward_kinematics(model, state)
    jac = pvdyn.constraint_jacobian(model, cache, cs)
    return pvdyn.State(state.q, state.v - np.linalg.pinv(jac) @ (jac @ state.v))


def _point_offset(con) -> np.ndarray:
    """Body point of a point constraint, read back from K = [-skew(p), I]."""
    sk = -con.K[:, :3]
    return np.array([sk[2, 1], sk[0, 2], sk[1, 0]])


def _anchor_drift(model, cs, state) -> float:
    """Largest distance of a constrained point, or rotation angle of a
    welded frame, from where its anchor holds it."""
    cache = pvdyn.forward_kinematics(model, state)
    worst = 0.0
    for con in cs:
        rot, pos = cache.w_rot[con.link], cache.w_trans[con.link]
        a_rot, a_pos = con.anchor.rotation, con.anchor.translation
        offset = np.zeros(3) if con.dim == 6 else _point_offset(con)
        worst = max(worst, float(np.linalg.norm(
            (pos + rot.T @ offset) - (a_pos + a_rot.T @ offset))))
        if con.dim == 6:
            cos = np.clip(0.5 * (np.trace(rot @ a_rot.T) - 1.0), -1.0, 1.0)
            worst = max(worst, float(np.arccos(cos)))
    return worst


def _step_check(model, cs):
    def check(state):
        drift = _anchor_drift(model, cs, state) if _finite(state.q, state.v) else np.inf
        return Check(drift <= DRIFT_TOL, drift=drift)
    return check


def build_sim_humanoid(seed: int) -> Pool:
    rng = np.random.default_rng((seed, 2))
    model = pvdyn.generate_humanoid_like()
    idx = model.names.index
    base = pvdyn.ConstraintSet([
        pvdyn.weld_constraint(idx("foot_l"), baumgarte=BAUMGARTE),
        pvdyn.weld_constraint(idx("foot_r"), baumgarte=BAUMGARTE),
        pvdyn.point_constraint(idx("hand_l"), [0.0, 0.0, -0.05], baumgarte=BAUMGARTE),
        pvdyn.point_constraint(idx("hand_r"), [0.0, 0.0, -0.05], baumgarte=BAUMGARTE),
    ])
    config = pvdyn.IntegratorConfig(scheme="rk4", dt=1e-3)
    segments = []
    for _ in range(SIM_STARTS):
        start = _consistent_state(model, base, int(rng.integers(2 ** 31)))
        cs = pvdyn.attach_anchors(model, start, base)
        tau = rng.uniform(-2.0, 2.0, model.nv)
        segments.append((start, cs, tau, pvdyn.PvWorkspace(model, cs)))

    ops = []
    for start, cs, tau, ws in segments:
        current = [start]
        for k in range(SIM_STEPS):
            # a segment restarts from its seeded state every round, so every
            # round runs the same steps
            def run(k=k, current=current, start=start, cs=cs, tau=tau, ws=ws):
                state = start if k == 0 else current[0]
                current[0] = pvdyn.step(model, state, tau, cs, "caba", config, ws)
                return current[0]
            ops.append(Op("rk4_step", run))

    def reference():
        for k, (start, cs, _, _) in enumerate(segments):
            _certify(model, start, cs, True, f"sim-humanoid start {k}")
            for op in ops[k * SIM_STEPS:(k + 1) * SIM_STEPS]:
                op.check = _step_check(model, cs)

    return Pool(ops, reference)


# ---------------------------------------------------------------------------
# osim-contacts: one Delassus operator build plus one apply per op


def _osim_ops(model, cs, ws, settings, point):
    """The four producers at `point` = [(state, rhs)], read when an op runs
    so that the reference step can replace an ill-conditioned draw."""
    def ltl():
        state = point[0][0]
        cache = pvdyn.forward_kinematics(model, state)
        mass = pvdyn.crba(model, state, cache=cache)
        jac = pvdyn.constraint_jacobian(model, cache, cs)
        return pvdyn.ltl_osim(mass, jac)

    producers = (
        ("pv_osim", lambda: pvdyn.pv_osim(model, point[0][0], cs, ws)),
        ("pv_osimr", lambda: pvdyn.pv_osimr(model, point[0][0], cs, ws)),
        ("caba_osim", lambda: pvdyn.caba_osim(model, point[0][0], cs, settings, ws)),
        ("ltl_osim", ltl),
    )
    ops = []
    for kind, produce in producers:
        def run(produce=produce):
            op = produce()
            return op, pvdyn.delassus_apply(op, point[0][1])
        ops.append(Op(kind, run))
    return ops


def _attach_osim_checks(ops, model, state, cs, settings, rhs):
    dense = pvdyn.dense_delassus(model, state, cs)
    explicit = _operator_check(dense, np.linalg.solve(dense, rhs))
    damped = _operator_check(*_damped_reference(dense, settings.mu, rhs))
    for op in ops:
        op.check = damped if op.kind == "caba_osim" else explicit


def build_osim_contacts(seed: int) -> Pool:
    rng = np.random.default_rng((seed, 3))
    settings = pvdyn.SolverSettings()
    humanoid = pvdyn.generate_humanoid_like()
    welds = pvdyn.ConstraintSet([
        pvdyn.weld_constraint(humanoid.names.index(name))
        for name in ("foot_l", "foot_r", "hand_l", "hand_r")])
    tree = pvdyn.generate_tree(*TREE)
    points = tree_points(tree, 12, rng)

    def draw(model, cs, gen):
        return (pvdyn.random_state(model, int(gen.integers(2 ** 31))),
                gen.uniform(-1.0, 1.0, cs.m))

    cases = []
    for model, cs, count in ((humanoid, welds, OSIM_POOL[0]), (tree, points, OSIM_POOL[1])):
        ws = pvdyn.PvWorkspace(model, cs)
        for _ in range(count):
            point = [draw(model, cs, rng)]
            cases.append((model, cs, point, _osim_ops(model, cs, ws, settings, point)))

    def reference():
        spare = np.random.default_rng((seed, 3, 1))
        for k, (model, cs, point, ops) in enumerate(cases):
            what = f"osim-contacts case {k}"
            point[0] = _well_posed(model, cs, point[0], lambda: draw(model, cs, spare), what)
            state, rhs = point[0]
            _certify(model, state, cs, True, what)
            _attach_osim_checks(ops, model, state, cs, settings, rhs)

    return Pool([op for case in cases for op in case[3]], reference)


# ---------------------------------------------------------------------------
# prox-singular: the proximal layer on rank-deficient, infeasible and
# near-singular rows


def _prox_ops(model, state, tau, cs, rhs, ws, settings):
    def solve():
        return pvdyn.constrained_aba(model, state, tau, cs, settings, ws)

    def damped():
        op = pvdyn.caba_osim(model, state, cs, settings, ws)
        return op, pvdyn.delassus_apply(op, rhs)
    return Op("constrained_aba", solve), Op("caba_osim", damped)


def build_prox_singular(seed: int) -> Pool:
    rng = np.random.default_rng((seed, 4))
    settings = pvdyn.SolverSettings()
    cases = []
    for s in SINGULAR_SEEDS:
        model, _, _, cs = pvdyn.random_singular_instance(s)
        cases.append((model, cs))
    humanoid = pvdyn.generate_humanoid_like()
    cases.append((humanoid, pvdyn.standard_constraints(humanoid, 24)))

    instances = []
    for model, cs in cases:
        # the structure does not depend on the seed; the operating point
        # (state, torque, right-hand side) is drawn from it
        state = pvdyn.random_state(model, int(rng.integers(2 ** 31)))
        tau = pvdyn.rnea(model, state, rng.uniform(-2.0, 2.0, model.nv))
        rhs = rng.uniform(-1.0, 1.0, cs.m)
        instances.append((model, state, tau, cs, rhs, pvdyn.PvWorkspace(model, cs)))
    # last, one full-rank fd-tree draw whose Delassus matrix is nearly
    # singular; its state and torque are fixed, since such draws are rare
    tree = pvdyn.generate_tree(*TREE)
    cs, points = fd_fixture(tree, NEAR_SINGULAR[0], NEAR_SINGULAR[1] + 1)
    instances.append((tree, *points[-1], cs, rng.uniform(-1.0, 1.0, cs.m),
                      pvdyn.PvWorkspace(tree, cs)))
    ops = [_prox_ops(*inst, settings) for inst in instances]

    def reference():
        for k, ((model, state, tau, cs, rhs, _), (solve, damped)) in enumerate(zip(instances,
                                                                                  ops)):
            near = k == len(instances) - 1
            what = f"prox-singular instance {k}"
            _certify(model, state, cs, near, what)
            dense = pvdyn.dense_delassus(model, state, cs)
            if near and np.linalg.eigvalsh(dense)[0] >= DELASSUS_FLOOR:
                raise CertificationError(f"{what}: expected a nearly singular Delassus matrix")
            solve.check = _singular_check(pvdyn.kkt_oracle(model, state, tau, cs))
            damped.check = _operator_check(*_damped_reference(dense, settings.mu, rhs))

    return Pool([op for pair in ops for op in pair], reference)


WORKLOADS = {
    "fd-tree": build_fd_tree,
    "sim-humanoid": build_sim_humanoid,
    "osim-contacts": build_osim_contacts,
    "prox-singular": build_prox_singular,
}
