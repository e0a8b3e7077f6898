import math

import numpy as np
import pytest

from isacloc import (
    ChannelPath,
    NoiseSpec,
    OfdmConfig,
    PrsAllocation,
    Scenario,
    ScenarioError,
    apply_channel,
    bistatic_delay,
    build_grid,
    noise_variance_from_snr,
)
from isacloc.constants import SPEED_OF_LIGHT


def dense_channel(grids, paths, config, noise):
    """Multiply-accumulate every path over the full M x N grid."""
    by_tx = {grid.allocation.transmitter_id: grid.symbols for grid in grids}
    m = np.arange(config.num_subcarriers)[:, None]
    n = np.arange(config.num_symbols)[None, :]
    out = {}
    for rx in sorted({p.receiver_id for p in paths}):
        acc = np.zeros((config.num_subcarriers, config.num_symbols), dtype=np.complex128)
        for path in (p for p in paths if p.receiver_id == rx):
            ramp = np.exp(-2j * np.pi * m * config.subcarrier_spacing * path.delay)
            if path.doppler != 0.0:
                ramp = ramp * np.exp(2j * np.pi * n * config.total_symbol_duration * path.doppler)
            acc += path.attenuation * ramp * by_tx[path.transmitter_id]
        if noise.variance > 0:
            rng = np.random.default_rng([noise.rng_seed, rx])
            sigma = np.sqrt(noise.variance)
            acc = acc + rng.normal(0.0, sigma, acc.shape) + 1j * rng.normal(0.0, sigma, acc.shape)
        out[rx] = acc
    return out


def _scenario(gnbs, ues, target, zg=None, zu=None):
    gnbs = np.asarray(gnbs, float)
    ues = np.asarray(ues, float)
    return Scenario(
        gnb_positions=gnbs,
        ue_positions=ues,
        target=np.asarray(target, float),
        link_excess_gnb=np.zeros(len(gnbs)) if zg is None else np.asarray(zg, float),
        link_excess_ue=np.zeros(len(ues)) if zu is None else np.asarray(zu, float),
    )


class TestApplyChannel:
    def test_identity_channel(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        [rx] = apply_channel([grid], [ChannelPath(0, 0)], small_config)
        assert np.array_equal(rx.symbols, grid.symbols)

    def test_integer_bin_phase_ramp(self, small_config):
        m_count = small_config.num_subcarriers
        q = 5
        delay = q / (small_config.subcarrier_spacing * m_count)
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        [rx] = apply_channel([grid], [ChannelPath(0, 0, delay=delay)], small_config)
        support = np.abs(grid.symbols) > 0
        ramp = np.exp(-2j * np.pi * np.arange(m_count) * q / m_count)[:, None]
        expected = ramp * grid.symbols
        assert np.allclose(rx.symbols[support], expected[support], atol=1e-12)

    def test_channel_phase_exact_on_support(self, small_config):
        # Divided grid equals the analytic delay/Doppler ramp times the gain.
        delay, doppler, beta = 123e-9, 40.0, 0.8 - 0.3j
        grid = build_grid(small_config, PrsAllocation(0, 2, sequence_seed=4))
        [rx] = apply_channel(
            [grid], [ChannelPath(0, 0, attenuation=beta, delay=delay, doppler=doppler)],
            small_config,
        )
        support = np.abs(grid.symbols) > 0
        m = np.arange(small_config.num_subcarriers)[:, None]
        n = np.arange(small_config.num_symbols)[None, :]
        expected = (
            beta
            * np.exp(2j * np.pi * n * small_config.total_symbol_duration * doppler)
            * np.exp(-2j * np.pi * m * small_config.subcarrier_spacing * delay)
        )
        ratio = rx.symbols[support] / grid.symbols[support]
        assert np.allclose(ratio, np.broadcast_to(expected, grid.symbols.shape)[support],
                           atol=1e-12)

    def test_disjoint_combs_split_by_support(self, small_config):
        g0 = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        g1 = build_grid(small_config, PrsAllocation(1, 1, sequence_seed=2))
        paths = [ChannelPath(0, 0, delay=50e-9), ChannelPath(1, 0, delay=80e-9)]
        [joint] = apply_channel([g0, g1], paths, small_config)
        [only0] = apply_channel([g0], paths[:1], small_config)
        [only1] = apply_channel([g1], paths[1:], small_config)
        support0 = np.abs(g0.symbols) > 0
        support1 = np.abs(g1.symbols) > 0
        assert np.allclose(joint.symbols[support0], only0.symbols[support0])
        assert np.allclose(joint.symbols[support1], only1.symbols[support1])

    def test_superposition_linearity(self, small_config):
        g0 = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        g1 = build_grid(small_config, PrsAllocation(1, 1, sequence_seed=2))
        paths = [ChannelPath(0, 0, delay=10e-9), ChannelPath(1, 0, delay=20e-9)]
        [joint] = apply_channel([g0, g1], paths, small_config)
        [a] = apply_channel([g0], paths[:1], small_config)
        [b] = apply_channel([g1], paths[1:], small_config)
        assert np.allclose(joint.symbols, a.symbols + b.symbols, atol=1e-12)

    def test_linearity_in_attenuation(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        [summed] = apply_channel(
            [grid],
            [ChannelPath(0, 0, attenuation=0.3, delay=40e-9),
             ChannelPath(0, 0, attenuation=0.7, delay=40e-9)],
            small_config,
        )
        [single] = apply_channel(
            [grid], [ChannelPath(0, 0, attenuation=1.0, delay=40e-9)], small_config
        )
        assert np.allclose(summed.symbols, single.symbols, atol=1e-12)

    def test_noise_statistics(self):
        from isacloc import OfdmConfig

        config = OfdmConfig(120e3, 120, num_symbols=100, comb_size=2)
        grid = build_grid(config, PrsAllocation(0, 0, sequence_seed=1))
        variance = 0.7
        [rx] = apply_channel(
            [grid],
            [ChannelPath(0, 0, attenuation=0.0)],
            config,
            NoiseSpec(variance=variance, rng_seed=11),
        )
        assert rx.symbols.size >= 10_000
        assert np.var(rx.symbols.real) == pytest.approx(variance, rel=0.05)
        assert np.var(rx.symbols.imag) == pytest.approx(variance, rel=0.05)

    def test_noise_reproducible_and_per_receiver(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        paths = [ChannelPath(0, 0), ChannelPath(0, 1)]
        noise = NoiseSpec(variance=0.1, rng_seed=5)
        first = apply_channel([grid], paths, small_config, noise)
        second = apply_channel([grid], paths, small_config, noise)
        assert np.array_equal(first[0].symbols, second[0].symbols)
        assert np.array_equal(first[1].symbols, second[1].symbols)
        assert not np.array_equal(first[0].symbols, first[1].symbols)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_dense_reference(self, trial):
        # Random comb grids and paths with attenuation, Doppler, repeated
        # transmitter-receiver pairs and noise; the support-restricted sum
        # must reproduce the dense one bit for bit.
        rng = np.random.default_rng(trial)
        comb = int(rng.choice([2, 4, 6, 12]))
        config = OfdmConfig(120e3, 12 * int(rng.integers(1, 12)), int(rng.integers(1, 15)), comb)
        num_tx, num_rx = int(rng.integers(1, comb + 1)), int(rng.integers(1, 4))
        offsets = rng.permutation(comb)[:num_tx]
        grids = [
            build_grid(config, PrsAllocation(s, int(offsets[s]), int(rng.integers(1, 2**31))))
            for s in range(num_tx)
        ]
        paths = [
            ChannelPath(
                int(rng.integers(num_tx)),
                int(rng.integers(num_rx)),
                attenuation=complex(rng.normal(), rng.normal()),
                delay=float(rng.uniform(0.0, 0.99 / config.subcarrier_spacing)),
                doppler=float(rng.normal(0.0, 500.0)) if rng.random() < 0.5 else 0.0,
            )
            for _ in range(2 * num_tx * num_rx)
        ]
        # Two paths from one transmitter to one receiver, always.
        paths.append(ChannelPath(0, 0, attenuation=0.5, delay=30e-9, doppler=120.0))
        paths.append(ChannelPath(0, 0, attenuation=-0.25j, delay=70e-9))
        noise = NoiseSpec(variance=[0.0, 0.05, 0.5][trial % 3], rng_seed=trial)
        received = apply_channel(grids, paths, config, noise)
        expected = dense_channel(grids, paths, config, noise)
        assert [rx.receiver_id for rx in received] == sorted(expected)
        for rx in received:
            assert np.array_equal(rx.symbols, expected[rx.receiver_id])

    def test_unknown_transmitter_rejected(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        with pytest.raises(ScenarioError):
            apply_channel([grid], [ChannelPath(3, 0)], small_config)

    def test_delay_beyond_window_rejected(self, small_config):
        grid = build_grid(small_config, PrsAllocation(0, 0, sequence_seed=1))
        too_long = 1.0 / small_config.subcarrier_spacing
        with pytest.raises(ScenarioError):
            apply_channel([grid], [ChannelPath(0, 0, delay=too_long)], small_config)


class TestBistaticDelay:
    def test_three_four_five(self):
        sc = _scenario([[3.0, 4.0]], [[0.0, 5.0]], [0.0, 0.0])
        assert bistatic_delay(sc, 0, 0) == pytest.approx(10.0 / SPEED_OF_LIGHT)

    def test_coincident_nodes(self):
        sc = _scenario([[1.0, 2.0]], [[1.0, 2.0]], [1.0, 2.0])
        assert bistatic_delay(sc, 0, 0) == 0.0

    def test_link_excess_added(self):
        sc = _scenario([[3.0, 4.0]], [[0.0, 5.0]], [0.0, 0.0], zg=[1.5], zu=[0.5])
        assert bistatic_delay(sc, 0, 0) == pytest.approx(12.0 / SPEED_OF_LIGHT)

    def test_random_geometry_matches_oracle(self, rng):
        for _ in range(25):
            gnbs = rng.uniform(-100, 100, (3, 2))
            ues = rng.uniform(-100, 100, (2, 2))
            target = rng.uniform(-50, 50, 2)
            sc = _scenario(gnbs, ues, target)
            for s in range(3):
                for k in range(2):
                    expected = (
                        math.hypot(target[0] - gnbs[s, 0], target[1] - gnbs[s, 1])
                        + math.hypot(target[0] - ues[k, 0], target[1] - ues[k, 1])
                    ) / SPEED_OF_LIGHT
                    assert bistatic_delay(sc, s, k) == pytest.approx(expected, rel=1e-12)


def test_noise_variance_from_snr():
    assert noise_variance_from_snr(0.0) == pytest.approx(0.5)
    assert noise_variance_from_snr(10.0) == pytest.approx(0.05)
    assert noise_variance_from_snr(20.0) == pytest.approx(0.005)
