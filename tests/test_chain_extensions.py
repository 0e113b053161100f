"""Tests for inclusion receipts."""

import pytest

from repro.chain import (
    Block,
    Blockchain,
    InMemoryBlockStore,
    find_and_issue,
    issue_receipt,
)
from repro.errors import ChainError


class TestInclusionReceipts:
    def build_chain(self):
        chain = Blockchain()
        for b in range(3):
            chain.append(
                "agg1", float(b),
                [{"device": f"d{i}", "device_uid": f"u{i}", "sequence": b,
                  "measured_at": float(b), "energy_mwh": 0.1 * i}
                 for i in range(5)],
            )
        return chain

    def test_issue_and_verify(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 1, 3)
        assert receipt.verify()
        assert receipt.verify(chain)
        assert receipt.record["device"] == "d3"

    def test_find_by_device_and_sequence(self):
        chain = self.build_chain()
        receipt = find_and_issue(chain, "u2", 1)
        assert receipt.block_height == 1
        assert receipt.verify(chain)

    def test_find_missing_raises(self):
        chain = self.build_chain()
        with pytest.raises(ChainError):
            find_and_issue(chain, "ghost", 0)

    def test_forged_record_fails_verification(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 1, 3)
        forged = type(receipt)(
            block_height=receipt.block_height,
            block_hash=receipt.block_hash,
            merkle_root=receipt.merkle_root,
            leaf_count=receipt.leaf_count,
            record=dict(receipt.record, energy_mwh=0.0),
            proof=receipt.proof,
        )
        assert not forged.verify()

    def test_receipt_against_rewritten_chain_fails(self):
        store = InMemoryBlockStore()
        chain = Blockchain(store)
        for b in range(3):
            chain.append(
                "agg1", float(b),
                [{"device": "d0", "device_uid": "u0", "sequence": b,
                  "measured_at": float(b), "energy_mwh": 1.0}],
            )
        receipt = issue_receipt(chain, 1, 0)
        # Attacker rewrites block 1 entirely (including its hash).
        forged_block = Block.create(
            height=1,
            previous_hash=chain.get(0).block_hash,
            aggregator="agg1",
            timestamp=1.0,
            records=[{"device": "d0", "device_uid": "u0", "sequence": 1,
                      "measured_at": 1.0, "energy_mwh": 0.0}],
        )
        store.tamper(1, forged_block)
        # Standalone proof still checks out (it is self-consistent)...
        assert receipt.verify()
        # ...but binding it to the live chain exposes the rewrite.
        assert not receipt.verify(chain)

    def test_out_of_range_issue_rejected(self):
        chain = self.build_chain()
        with pytest.raises(ChainError):
            issue_receipt(chain, 0, 99)
        with pytest.raises(ChainError):
            issue_receipt(chain, 99, 0)

    def test_receipt_bounds_checked_against_chain(self):
        chain = self.build_chain()
        receipt = issue_receipt(chain, 2, 0)
        shorter = Blockchain()
        assert not receipt.verify(shorter)
