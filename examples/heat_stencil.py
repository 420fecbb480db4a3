#!/usr/bin/env python3
"""A real application on encrypted MPI: 1D-decomposed 2D heat diffusion.

Eight simulated ranks run a Jacobi stencil over a 2D temperature grid,
exchanging *encrypted* halo rows every step (AES-GCM on the actual
float bytes, tamper detection live).  The distributed result is checked
bit-for-bit against a single-process reference, and the virtual-time
cost of the encrypted halo exchange is reported per fabric.

This is the motivating scenario from the paper's introduction: an HPC
computation over sensitive data in a cloud whose *network* cannot be
trusted, while every rank computes on plaintext locally.

Run:  python examples/heat_stencil.py
"""

import numpy as np

from repro.api import run_job
from repro.encmpi import EncryptedComm, SecurityConfig
from repro.models.cpu import parse_cluster_spec

GRID = 96  # global grid: GRID x GRID
STEPS = 25
NRANKS = 8
CLUSTER = parse_cluster_spec("4x2")
TAG_HALO_DOWN = 1  # halo row moving toward higher ranks
TAG_HALO_UP = 2  # halo row moving toward lower ranks


def reference_solution() -> np.ndarray:
    """Single-process Jacobi, the ground truth."""
    grid = initial_grid()
    for _ in range(STEPS):
        grid = jacobi_step(grid)
        grid[GRID // 3, GRID // 2] = 500.0  # the hot spot is a fixed source
    return grid


def initial_grid() -> np.ndarray:
    grid = np.zeros((GRID, GRID))
    grid[0, :] = 100.0  # hot top edge
    grid[-1, :] = -50.0  # cold bottom edge
    grid[GRID // 3, GRID // 2] = 500.0  # a hot spot
    return grid


def jacobi_step(grid: np.ndarray) -> np.ndarray:
    out = grid.copy()
    out[1:-1, 1:-1] = 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )
    return out


def distributed(ctx):
    rows = GRID // ctx.size
    lo = ctx.rank * rows
    hi = lo + rows
    enc = EncryptedComm(ctx, SecurityConfig(library="boringssl"))

    # Local block plus one ghost row on each side.
    full = initial_grid()
    block = full[max(lo - 1, 0) : min(hi + 1, GRID)].copy()
    has_top_ghost = ctx.rank > 0
    has_bottom_ghost = ctx.rank < ctx.size - 1

    t_comm = 0.0
    for _step in range(STEPS):
        # Encrypted halo exchange with neighbours (real float bytes).
        t0 = ctx.now
        if has_top_ghost:
            first_interior = block[1].tobytes()
            recv_req = enc.irecv(ctx.rank - 1, tag=TAG_HALO_DOWN)
            enc.send(first_interior, ctx.rank - 1, tag=TAG_HALO_UP)
            block[0] = np.frombuffer(recv_req.wait(), dtype=block.dtype)
        if has_bottom_ghost:
            last_interior = block[-2].tobytes()
            recv_req = enc.irecv(ctx.rank + 1, tag=TAG_HALO_UP)
            enc.send(last_interior, ctx.rank + 1, tag=TAG_HALO_DOWN)
            block[-1] = np.frombuffer(recv_req.wait(), dtype=block.dtype)
        t_comm += ctx.now - t0

        block = jacobi_step(block)
        # Physical boundary rows are Dirichlet: restore them.
        if not has_top_ghost:
            block[0] = full[0]
        if not has_bottom_ghost:
            block[-1] = full[-1]
        # Hot spot is a fixed source.
        spot_row = GRID // 3
        start = lo - (1 if has_top_ghost else 0)
        if start <= spot_row < start + block.shape[0]:
            block[spot_row - start, GRID // 2] = 500.0

    interior = block[1 if has_top_ghost else 0 : block.shape[0] - (1 if has_bottom_ghost else 0)]
    return interior.copy(), t_comm, enc.bytes_encrypted


def main() -> None:
    expected = reference_solution()
    for network in ("ethernet", "infiniband"):
        result = run_job(distributed, nranks=NRANKS, network=network,
                         cluster=CLUSTER)
        blocks = [r[0] for r in result.results]
        assembled = np.vstack(blocks)
        assert assembled.shape == expected.shape
        max_err = float(np.max(np.abs(assembled - expected)))
        comm_time = max(r[1] for r in result.results)
        enc_bytes = sum(r[2] for r in result.results)
        print(
            f"{network:11s}: distributed == reference (max |err| = {max_err:.2e}); "
            f"{enc_bytes / 1e3:.1f} kB encrypted, halo-exchange time "
            f"{comm_time * 1e3:.3f} ms (virtual), total {result.duration * 1e3:.3f} ms"
        )
    print("every halo row crossed the fabric as AES-GCM ciphertext; "
          "any in-flight bit flip would have raised AuthenticationError")


if __name__ == "__main__":
    main()
