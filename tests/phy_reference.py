"""Dense M x N reference pipeline for the phy channel and comb ranging tests.

`dense_grid` lays a transmitter's comb rows into its full M x N grid,
zero off its comb.  `dense_channel` multiply-accumulates every path over
those grids and `batched_comb_profiles` ranges the received grids in one
batched comb-domain pass.  Together they are the pipeline the library's
comb-block channel and ranging must reproduce bit for bit.

`dense_divide`, `dense_profile` and `dense_range` range one pair on dense
M x N matrices, zero off the comb, with an M-point IFFT: the per-pair
periodogram that the library's W-point comb stages must agree with.
"""

import numpy as np

from isacloc import NoDetectionError


def dense_grid(grid, config):
    """A grid's W x N comb rows laid into M x N zeros.

    Row i of grid.symbols goes to subcarrier comb_offset + comb_size*i.
    """
    out = np.zeros((config.num_subcarriers, config.num_symbols), np.complex128)
    out[grid.allocation.comb_offset::config.comb_size] = grid.symbols
    return out


def dense_channel(grids, delays, config, noise):
    """Multiply-accumulate every path over the full M x N grids.

    Noise goes on the rows where some grid is nonzero: receiver k draws
    (rows, N, 2) standard normals from default_rng([rng_seed, k]), the
    real and imaginary part of each entry in turn.
    """
    m = np.arange(config.num_subcarriers)[:, None]
    dense = [dense_grid(grid, config) for grid in grids]
    occupied = np.flatnonzero(np.any([tx != 0 for tx in dense], axis=(0, 2)))
    out = []
    for k in range(delays.shape[1]):
        acc = np.zeros((config.num_subcarriers, config.num_symbols), dtype=np.complex128)
        for s, tx in enumerate(dense):
            acc += np.exp(-2j * np.pi * m * config.subcarrier_spacing * delays[s, k]) * tx
        if noise.variance > 0:
            rng = np.random.default_rng([noise.rng_seed, k])
            z = np.sqrt(noise.variance) * rng.standard_normal(
                (occupied.size, config.num_symbols, 2))
            acc[occupied] += z[..., 0] + 1j * z[..., 1]
        out.append(acc)
    return out


def batched_comb_profiles(received, transmit, config):
    """Comb profiles of M x N received grids in one batched pass.

    One (S, K, W, N) divide, IFFT, magnitude and mean: entry [s, k] is the
    profile of pair (s, k) over bins [0, W).
    """
    comb = config.comb_size
    window = config.num_subcarriers // comb
    offsets = [grid.allocation.comb_offset for grid in transmit]
    v_tx = np.stack([
        dense_grid(grid, config).reshape(window, comb, -1)[:, c]
        for grid, c in zip(transmit, offsets)
    ])
    nonzero = v_tx != 0
    divided = np.zeros((len(transmit), len(received), window, config.num_symbols), np.complex128)
    for k, rx in enumerate(received):
        v_rx = rx.reshape(window, comb, -1)[:, offsets].transpose(1, 0, 2)
        np.divide(v_rx, v_tx, out=divided[:, k], where=nonzero)
    spectra = np.fft.ifft(divided, axis=2, norm="forward")
    return np.abs(spectra).mean(axis=3)


def scatter_blocks(blocks, grids, config):
    """Lay each receiver's (S, W, N) comb block into a zeroed M x N grid.

    Block row [s, i] goes to subcarrier comb_offset + comb_size*i of
    grids[s]; every other row stays exactly zero.
    """
    out = []
    for block in blocks:
        rx = np.zeros((config.num_subcarriers, config.num_symbols), np.complex128)
        for s, grid in enumerate(grids):
            rx[grid.allocation.comb_offset::config.comb_size] = block[s]
        out.append(rx)
    return out


def dense_divide(received, transmit):
    """Remove the known transmit symbols by point-wise division.

    Both are M x N matrices.  Entries where the transmit matrix is zero are
    defined as zero, so the result carries the per-path channel response on
    the transmit comb and nothing elsewhere.
    """
    v_rx = np.asarray(received)
    v_tx = np.asarray(transmit)
    if v_rx.shape != v_tx.shape:
        raise ValueError(f"shape mismatch: received {v_rx.shape} vs transmit {v_tx.shape}")
    out = np.zeros(v_rx.shape, dtype=np.complex128)
    np.divide(v_rx, v_tx, out=out, where=(v_tx != 0))
    return out


def dense_profile(g, config):
    """Average the per-column IFFT magnitudes of the divided grid.

    Returns the M delay-bin values, read-only.  The inverse DFT is
    unnormalized; only relative magnitudes matter for the peak search.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != config.num_subcarriers:
        raise ValueError("g must have one row per subcarrier")
    spectra = np.fft.ifft(g, axis=0) * g.shape[0]
    values = np.abs(spectra).mean(axis=1)
    values.setflags(write=False)
    return values


def dense_range(profile, config):
    """Bistatic range in meters at the peak of a `dense_profile`.

    The argmax is taken over bins [0, M/comb_size); ties resolve to the
    lowest index, whose bin index times the bin width is the range.
    Raises NoDetectionError on an all-zero profile.
    """
    values = profile[:config.num_subcarriers // config.comb_size]
    if values.size == 0 or float(values.max(initial=0.0)) <= 0.0:
        raise NoDetectionError("range profile has no nonzero peak")
    return int(np.argmax(values)) * config.range_resolution
