"""The benchmark's workloads and the CLI inputs each seed generates.

Standard library only, so ``run.py`` can import it without loading numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# s = 1.6 already fails verify-th2's theta_gap_decreasing check at the README
# grids, and at s = 1.7 verify-th2, verify-th4 ("exponential window has fewer
# than 20 grid samples") and linearize all fail.  That is a grid-resolution
# limit of the program, not a fast error path worth timing, so the range
# stops at 1.5.
S_VALUES = (1.3, 1.4, 1.5)
MASS_FACTOR = (0.9, 1.1)


@dataclass(frozen=True)
class Command:
    """One CLI subcommand of an op, with the README masses it is given."""

    name: str
    masses: tuple
    grid: tuple | None = None  # (L, M); None keeps the CLI default
    extra: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    # "cold": emptied before every op, hit ratio 0; "warm": filled in set-up,
    # hit ratio 1; "none": the commands do not use the cache
    cache: str
    # exact per-op layer counts at every seed, for the program as it stands;
    # traced runs report a change and the tests assert them
    expected_counts: dict = field(default_factory=dict)

    def points_per_op(self) -> int:
        return sum(len(cmd.masses) for cmd in self.commands)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="solve-cold",
            why=(
                "verify-th2 on an empty cache: the Petviashvili secant loop, padded "
                "nonlinearity and FFTs do nearly all the work; cache only writes, "
                "asymptotics and linearized idle"
            ),
            commands=(Command("verify-th2", (0.4, 0.2, 0.1, 0.05), (256.0, 16384)),),
            cache="cold",
        ),
        Workload(
            name="solve-random",
            why=(
                "verify-th3, 5 random starts on a 4x smaller grid: the same solver layer "
                "started far from the solution, so a change that only helps warm starts shows"
            ),
            commands=(
                Command("verify-th3", (0.05,), (64.0, 4096), ("--inits", "5")),
            ),
            cache="none",
        ),
        Workload(
            name="analysis-warm",
            why=(
                "verify-th4, kernel and linearize on solves cached in set-up: no solver "
                "calls; the kernel-tail quadrature and the dense eigen step do the work"
            ),
            commands=(
                Command("verify-th4", (0.2, 0.1, 0.05), (256.0, 16384)),
                Command("kernel", (0.2,)),
                Command("linearize", (0.1,), (128.0, 1024)),
            ),
            cache="warm",
            # 3 kernel-tail builds per verify-th4 point (one per point would
            # do), 160 quadratures per build plus 64 from `kernel`, no solves
            # on the warm cache, one dense operator
            expected_counts={
                "asymptotics.kernel_tail.builds": 9.0,
                "symbols.laplace_quad.calls": 1504.0,
                "solvers.petviashvili_mass_constrained.calls": 0.0,
                "linearized.dense.calls": 1.0,
            },
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """The inputs of one op: one s, and each command's scaled masses."""

    s: float
    masses: tuple  # one tuple of mass strings per workload command


def draw_round(workload: Workload, seed: int) -> list:
    """The ops of one round, generated from the seed alone.

    A round runs every s once, in a seeded order, each with its own seeded
    mass factors.  The op cost grows by about 1.7x from s = 1.5 to s = 1.3,
    so drawing a single s per run would make the run median follow the
    seed; balanced rounds keep it a property of the program.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    order = list(S_VALUES)
    rng.shuffle(order)
    return [
        Op(
            s=s,
            masses=tuple(
                tuple(format(m * rng.uniform(*MASS_FACTOR), ".6g") for m in cmd.masses)
                for cmd in workload.commands
            ),
        )
        for s in order
    ]


def argv(cmd: Command, s: float, masses: tuple, cache_dir: str, output_dir: str) -> list:
    """The CLI arguments of one command of an op."""
    args = [cmd.name, "--s-list", repr(s), "--n-list", ",".join(masses)]
    if cmd.grid is not None:
        args += ["--grid-l", repr(cmd.grid[0]), "--grid-m", str(cmd.grid[1])]
    return args + list(cmd.extra) + [
        "--workers", "1", "--cache-dir", cache_dir, "--output-dir", output_dir,
    ]


def fill_argvs(workload: Workload, op: Op, cache_dir: str, output_dir: str) -> list:
    """`fracnls solve` calls that cache every solve the op will look up.

    The fill goes through the CLI, so it keys the cache exactly as the
    analysis commands do; `kernel` solves nothing and needs no entry.
    """
    out = []
    for cmd, masses in zip(workload.commands, op.masses):
        if cmd.name == "kernel":
            continue
        fill = Command("solve", cmd.masses, cmd.grid)
        out.append(argv(fill, op.s, masses, cache_dir, output_dir))
    return out
