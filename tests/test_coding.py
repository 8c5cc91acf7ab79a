"""Coded-transfer tests: fountain decoding, XOR parity, NACK comparison.

The load-bearing property (hypothesis-driven): a receiver recovers the
whole generation from **any** subset of coded packets whose coefficient
masks span GF(2)^k — which packets were lost never matters, only how
many independent ones arrived.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diff.packets import Packetisation
from repro.obs import metrics
from repro.net import grid
from repro.net.coding import (
    CodedTransferParams,
    GenerationDecoder,
    LTStream,
    decode_generation,
    pad_packets,
    robust_soliton_degree,
    run_coded_campaign,
    xor_packets,
)
from repro.net.errors import NetConfigError
from repro.net.faults import FaultPlan, NodeCrash
from repro.net.gossip import run_gossip
from repro.net.lossy import disseminate_lossy
from repro.net.trickle import run_trickle

BLOB = bytes(range(251)) * 3  # three packets' worth of arbitrary script
PPP = 64  # small payload so generations have a dozen-odd packets


def gf2_rank(masks, k):
    """Independent row-echelon rank check (not the decoder under test)."""
    basis = []
    for mask in masks:
        for row in basis:
            mask = min(mask, mask ^ row)
        if mask:
            basis.append(mask)
    return len(basis)


def coded_packets(blob, ppp, count, label="t"):
    padded = pad_packets(blob, ppp)
    stream = LTStream(len(padded), label)
    return len(padded), [
        (stream.mask_at(seq), stream.payload_at(seq, padded))
        for seq in range(count)
    ]


def soliton_reference(k, rng):
    """The robust soliton draw rebuilt from scratch on every call, as a
    loop over degrees (the reference for the cached table)."""
    if k <= 1:
        return 1
    c, delta = 0.1, 0.5
    r = c * math.log(k / delta) * math.sqrt(k)
    spike = max(1, min(k, int(round(k / r)))) if r > 0 else 1
    rho = [0.0] * (k + 1)
    rho[1] = 1.0 / k
    for d in range(2, k + 1):
        rho[d] = 1.0 / (d * (d - 1))
    tau = [0.0] * (k + 1)
    for d in range(1, spike):
        tau[d] = r / (d * k)
    tau[spike] = r * math.log(r / delta) / k if r > 1 else 0.0
    weights = [rho[d] + max(0.0, tau[d]) for d in range(k + 1)]
    u = rng.random() * sum(weights)
    acc = 0.0
    for d in range(1, k + 1):
        acc += weights[d]
        if u <= acc:
            return d
    return k


class TestCodingPrimitives:
    def test_soliton_draws_match_the_reference(self):
        for k in range(1, 90):
            ours, theirs = random.Random(f"sol:{k}"), random.Random(f"sol:{k}")
            for _ in range(40):
                assert robust_soliton_degree(k, ours) == soliton_reference(k, theirs)

    @settings(max_examples=40, deadline=None)
    @given(packets=st.lists(st.binary(min_size=5, max_size=5), min_size=1, max_size=9),
           mask=st.integers(min_value=0, max_value=511))
    def test_xor_packets_is_bytewise_xor(self, packets, mask):
        mask &= (1 << len(packets)) - 1
        expected = bytearray(5)
        for index, packet in enumerate(packets):
            if mask >> index & 1:
                for at in range(5):
                    expected[at] ^= packet[at]
        assert xor_packets(mask, packets) == bytes(expected)


class TestFountainProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), blob_len=st.integers(min_value=1, max_value=300))
    def test_any_full_rank_subset_decodes(self, data, blob_len):
        """ISSUE acceptance: decoding succeeds from any sufficient subset
        of coded packets, and the rebuilt blob is byte-identical."""
        blob = bytes((7 * i + 3) % 256 for i in range(blob_len))
        k, packets = coded_packets(blob, 32, count=3 * ((blob_len // 32) + 4))
        subset = data.draw(
            st.lists(
                st.sampled_from(packets),
                min_size=0,
                max_size=len(packets),
                unique_by=id,
            )
        )
        decoded = decode_generation(k, len(blob), 32, subset)
        if gf2_rank([mask for mask, _ in subset], k) >= k:
            assert decoded == blob
        else:
            assert decoded is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_masks_are_pure_functions_of_label_and_sequence(self, seed):
        a = LTStream(9, f"repro-coding:{seed}:0")
        b = LTStream(9, f"repro-coding:{seed}:0")
        assert [a.mask_at(i) for i in range(40)] == [
            b.mask_at(i) for i in range(40)
        ]

    def test_systematic_prefix_is_the_source_packets(self):
        padded = pad_packets(BLOB, PPP)
        stream = LTStream(len(padded), "sys")
        for index, packet in enumerate(padded):
            assert stream.mask_at(index) == 1 << index
            assert stream.payload_at(index, padded) == packet

    def test_dependent_packets_do_not_raise_rank(self):
        k, packets = coded_packets(BLOB, PPP, count=len(pad_packets(BLOB, PPP)))
        decoder = GenerationDecoder(k)
        for mask, payload in packets:
            assert decoder.add(mask, payload)
        assert decoder.complete
        assert not decoder.add(*packets[0])

    def test_incomplete_decoder_refuses_payloads(self):
        decoder = GenerationDecoder(3)
        decoder.add(0b001, b"\x01")
        with pytest.raises(NetConfigError):
            decoder.payloads()


class TestCodedTransferParams:
    def test_defaults_are_valid(self):
        params = CodedTransferParams()
        assert params.scheme == "lt"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "rs"},
            {"scheme": "LT"},
            {"burst": -1},
            {"burst": 0},
            {"group": 1},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(NetConfigError):
            CodedTransferParams(**kwargs)

    def test_xor_scheme_rejected_by_fountain_campaign(self):
        with pytest.raises(NetConfigError):
            run_coded_campaign(
                grid(3, 3), BLOB,
                params=CodedTransferParams(scheme="xor"), seed=1,
            )


class TestCodedCampaign:
    def test_lossless_campaign_converges(self):
        report = run_coded_campaign(grid(3, 3), BLOB, seed=1)
        assert report.converged
        assert report.nacks == 0
        assert report.retransmissions == 0

    def test_deterministic_given_seed(self):
        runs = [
            run_coded_campaign(grid(3, 3), BLOB, loss=0.2, seed=7)
            for _ in range(2)
        ]
        assert runs[0].digest() == runs[1].digest()

    def test_fewer_transmissions_than_nack_repair(self):
        """Acceptance: coded dissemination completes with measurably
        fewer transmissions than per-packet NACK repair on the same
        lossy fleet (NACK packets are transmissions too)."""
        blob = bytes(range(256)) * 2 + bytes(88)
        topo = grid(10, 10)
        for loss in (0.1, 0.2, 0.3):
            nack = disseminate_lossy(
                topo, Packetisation(len(blob), 22, 12), loss=loss, seed=7
            )
            coded = run_coded_campaign(
                topo, blob, params=CodedTransferParams(burst=16),
                loss=loss, seed=7,
            )
            assert nack.complete and coded.converged
            assert coded.broadcasts < nack.broadcasts + nack.nacks

    def test_crash_wipes_decoder_state_but_fleet_recovers(self):
        plan = FaultPlan(
            crashes=(NodeCrash(node=4, round=2, reboot_round=6),), seed=3
        )
        report = run_coded_campaign(grid(3, 3), BLOB, plan, loss=0.1, seed=3)
        assert report.converged
        # The engine's shared crash/reboot handlers, with the fountain's
        # crash wording: the node lost its decoder and booted golden.
        assert report.fault_log == [
            "r2: node 4 crashed (decoder state lost)",
            "r6: node 4 rebooted (golden image v0)",
        ]

    def test_corruption_burns_receptions_not_correctness(self):
        plan = FaultPlan(corrupt_prob=0.15, seed=9)
        report = run_coded_campaign(grid(3, 3), BLOB, plan, loss=0.1, seed=9)
        assert report.converged
        assert report.crc_rejections > 0


class TestXorBurstParity:
    def test_trickle_with_parity_converges(self):
        report = run_trickle(
            grid(3, 3), BLOB, loss=0.2, seed=4,
            coding=CodedTransferParams(scheme="xor"),
        )
        assert report.converged

    def test_gossip_with_parity_converges(self):
        report = run_gossip(
            grid(3, 3), BLOB, loss=0.2, seed=4,
            coding=CodedTransferParams(scheme="xor"),
        )
        assert report.converged

    def test_gossip_legs_carry_parity(self):
        """Gossip's unicast legs trail their bursts with parity too: more
        transmissions than plain gossip, and losses repaired locally."""
        topo = grid(4, 4)
        plain = run_gossip(topo, BLOB, loss=0.3, seed=6)
        before = metrics.REGISTRY.values("net.coding.")
        coded = run_gossip(
            topo, BLOB, loss=0.3, seed=6,
            coding=CodedTransferParams(scheme="xor"),
        )
        delta = metrics.REGISTRY.delta(before, "net.coding.")
        assert coded.converged
        assert delta["net.coding.repairs"] > 0
        assert coded.transmissions > plain.transmissions

    def test_lt_scheme_rejected_by_kernel(self):
        with pytest.raises(NetConfigError):
            run_trickle(
                grid(3, 3), BLOB, seed=1,
                coding=CodedTransferParams(scheme="lt"),
            )

    def test_uncoded_kernel_run_is_byte_identical_to_before(self):
        """coding=None must not perturb the pinned kernel digests."""
        plain = run_trickle(grid(3, 3), BLOB, loss=0.2, seed=4)
        defaulted = run_trickle(grid(3, 3), BLOB, loss=0.2, seed=4,
                                coding=None)
        assert plain.digest() == defaulted.digest()

    def test_parity_repairs_reduce_request_traffic(self):
        """Local parity repair should cut losses that would otherwise
        trigger a fresh ADV/REQ/DATA exchange."""
        topo = grid(4, 4)
        plain = run_trickle(topo, BLOB, loss=0.3, seed=6)
        coded = run_trickle(
            topo, BLOB, loss=0.3, seed=6,
            coding=CodedTransferParams(scheme="xor"),
        )
        assert coded.converged
        assert coded.requests <= plain.requests
