"""The benchmark's workloads: one matrix source, one function, four methods.

Each workload fixes the matrix (generator, parameters, shift), the function,
the number of problems, the perturbation and the adaptive protocol.  Only
the seed of the right-hand sides, the perturbations and the sketch varies:
``SequenceSpec.seed = base_seed + seed`` for the ``--seed`` given on the
command line, so ``--seed 0`` reproduces the reference figures in README.md.
"""

from dataclasses import dataclass

from krec.driver import AdaptiveM, GeneratorSource, SequenceSpec
from krec.matfun import INV, INVSQRT, exp_scaled

METHODS = ("fom", "sfom", "rfom", "srfom_stab")
# the settings each method's SequenceSpec takes from the workload
METHOD_KEYS = {
    "fom": (),
    "sfom": ("s", "t"),
    "rfom": ("k",),
    "srfom_stab": ("k", "s", "t", "svdtol"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    function: object
    source: GeneratorSource
    shift: complex
    num_problems: int
    perturbation: float
    base_seed: int
    m: AdaptiveM
    t: int
    s: int
    k: int
    # one timed round: how often each method's sequence runs, and how many
    # blocks of load_matrix calls ("setup") it holds.  Shorter sequences run
    # more often, so that every median rests on several seconds of samples.
    reps: dict
    svdtol: float = 1e-12

    def spec(self, method, seed):
        """The SequenceSpec of one method's sequence for the run seed."""
        extra = {key: getattr(self, key) for key in METHOD_KEYS[method]}
        return SequenceSpec(
            function=self.function, method=method, num_problems=self.num_problems,
            m=self.m, matrix_source=self.source, shift=self.shift,
            perturbation=self.perturbation, seed=self.base_seed + seed,
            rhs_rule="fresh", stop_rule="estimator", timing_reps=1, **extra)


WORKLOADS = {w.name: w for w in (
    # Small N, m up to ~150: the projected dense kernel dominates, the matrix
    # never changes, so the cached AU and recycling pay off.
    Workload(name="inv-neumann2d", function=INV,
             source=GeneratorSource("neumann2d", {"n": 31}), shift=1e-3,
             num_problems=10, perturbation=0.0, base_seed=7,
             m=AdaptiveM(reltol=1e-8, d=10, m_max=700), t=2, s=800, k=50,
             reps={"setup": 3, "fom": 2, "sfom": 2, "rfom": 2, "srfom_stab": 2}),
    # The paper's invsqrt experiment: a new matrix at every problem, so A U
    # and S A U are recomputed and U is carried across matrices.
    Workload(name="invsqrt-twocluster", function=INVSQRT,
             source=GeneratorSource("twocluster", {"N": 400, "seed": 11}), shift=0.0,
             num_problems=20, perturbation=1e-8, base_seed=5,
             m=AdaptiveM(reltol=1e-8, d=10, m_max=220), t=8, s=400, k=20,
             reps={"setup": 3, "fom": 2, "sfom": 2, "rfom": 6, "srfom_stab": 6}),
    # Large N (just under the DCT length 2^15), m ~ 40: the O(N) layers
    # dominate and the dense kernel and recycling benefit are bypassed.
    Workload(name="exp-advdiff2d-large", function=exp_scaled(1e-4),
             source=GeneratorSource("advdiff2d", {"n": 181}), shift=0.0,
             num_problems=3, perturbation=1e-8, base_seed=0,
             m=AdaptiveM(reltol=1e-8, d=10, m_max=300), t=2, s=800, k=50,
             reps={"setup": 3, "fom": 1, "sfom": 3, "rfom": 1, "srfom_stab": 2}),
)}
