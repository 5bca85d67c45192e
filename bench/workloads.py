"""The benchmark's workloads: input make-up and the CLI call each one times.

Standard library only, so the runner and the checker can read it without
importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass

DIST, S = "exponential", 0.5
REPULSION = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                 # "generic" (txcleanse.synth) or "aol" (aol_gen)
    command: str             # "pipeline" or "cleanse"
    spec: dict               # SyntheticSpec / AolSpec fields, seed excluded
    tiny: dict               # the same generator's fields for the set-up call
    inputs_per_round: int = 1

    @property
    def arms(self) -> tuple[str, ...]:
        return ("cleansed", "raw") if self.command == "pipeline" else ("cleanse",)

    def argv(self, input_path: str, out_dir: str) -> list[str]:
        argv = [self.command, input_path, "--format", self.fmt, "--dist", DIST, "--s", str(S),
                "--out-dir", out_dir]
        if self.command == "pipeline":
            argv += ["--repulsion", str(REPULSION)]
        return argv

    def input_seed(self, seed: int, index: int) -> int:
        return seed * self.inputs_per_round + index


_CRITERION_6 = dict(items_per_cluster=20, picks_per_transaction=10, noise_items_per_hit=1)
_TINY = dict(transactions=60, clusters=3, **_CRITERION_6, noise_rate=0.3,
             ubiquitous_items=2, ubiquity=0.9)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-5k",
            fmt="generic",
            command="pipeline",
            spec=dict(transactions=5000, clusters=50, **_CRITERION_6, noise_rate=0.30,
                      ubiquitous_items=5, ubiquity=0.95),
            tiny=_TINY,
            inputs_per_round=5,
        ),
        Workload(
            name="aol-wide",
            fmt="aol",
            command="pipeline",
            spec=dict(users=1500, topics=150),
            tiny=dict(users=24, topics=3),
            inputs_per_round=8,
        ),
        Workload(
            name="cleanse-50k",
            fmt="generic",
            command="cleanse",
            spec=dict(transactions=50000, clusters=500, **_CRITERION_6, noise_rate=0.086,
                      ubiquitous_items=3, ubiquity=0.9),
            tiny=_TINY,
        ),
    )
}
