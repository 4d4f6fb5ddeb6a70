"""Lease board: claim/steal/fence lifecycle under a FakeClock.

Every scenario here is a distilled farm failure mode: expiry exactly
at the deadline, a zombie worker coming back after its cell was
stolen, a coordinator restarting over a half-finished board, a worker
SIGKILLed mid-cell (modelled as a claim that is simply never renewed
or settled).
"""

import pytest

from repro.bench.runner import config_for_scale
from repro.errors import ConfigError
from repro.lab.clock import BackoffPolicy, FakeClock
from repro.lab.lease import LeaseBoard
from repro.lab.spec import bench_spec

CONFIG = config_for_scale("smoke")


def make_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def make_board(tmp_path, clock=None):
    return LeaseBoard(tmp_path / "leases.sqlite",
                      clock=clock or FakeClock())


class TestSeeding:
    def test_seed_is_idempotent(self, tmp_path):
        specs = make_specs(3)
        board = make_board(tmp_path)
        assert board.seed(specs) == 3
        assert board.seed(specs) == 0
        assert board.counts()["pending"] == 3

    def test_reseed_does_not_reset_inflight_leases(self, tmp_path):
        specs = make_specs(2)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        (lease,) = board.claim("w1", lease_s=60.0)
        board.seed(specs)  # a restarted coordinator re-adopts
        rows = {row["spec_hash"]: row for row in board.rows()}
        row = rows[lease.spec_hash]
        assert row["state"] == "leased"
        assert row["owner"] == "w1"
        assert row["fence"] == lease.fence

    def test_settle_finishes_a_cell_without_execution(self, tmp_path):
        specs = make_specs(1)
        board = make_board(tmp_path)
        board.seed(specs)
        assert board.settle(specs[0].spec_hash)
        assert not board.settle(specs[0].spec_hash)  # already done
        assert board.finished()

    def test_settle_is_transactional(self, tmp_path):
        """settle participates in the board's BEGIN IMMEDIATE
        discipline: it waits for a concurrent writer's transaction
        (instead of interleaving mid-transaction), commits its own
        (a peer connection sees the row), and leaves no transaction
        open behind it (the next board method can BEGIN again)."""
        import sqlite3

        specs = make_specs(2)
        board = make_board(tmp_path)
        board.seed(specs)

        # a peer process holding the write lock blocks settle
        peer = LeaseBoard(tmp_path / "leases.sqlite",
                          clock=FakeClock(), busy_timeout_s=0.05)
        board._begin()
        try:
            import pytest
            with pytest.raises(sqlite3.OperationalError):
                peer.settle(specs[0].spec_hash)
        finally:
            board._conn.execute("ROLLBACK")

        # settle commits durably: the peer connection sees it...
        assert board.settle(specs[0].spec_hash)
        assert peer.counts()["done"] == 1
        # ...and leaves no transaction open on its own connection
        (lease,) = board.claim("w1", lease_s=60.0)
        assert lease.spec_hash == specs[1].spec_hash
        peer.close()


class TestClaiming:
    def test_claims_come_in_spec_hash_order(self, tmp_path):
        specs = make_specs(4)
        board = make_board(tmp_path)
        board.seed(specs)
        leases = board.claim("w1", lease_s=60.0, limit=4)
        hashes = [lease.spec_hash for lease in leases]
        assert hashes == sorted(spec.spec_hash for spec in specs)

    def test_claimed_cells_are_invisible_to_peers(self, tmp_path):
        specs = make_specs(2)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        assert len(board.claim("w1", lease_s=60.0, limit=2)) == 2
        assert board.claim("w2", lease_s=60.0, limit=2) == []

    def test_expiry_exactly_at_the_deadline_is_claimable(
            self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        board.claim("w1", lease_s=10.0)
        clock.advance(10.0 - 1e-9)
        assert board.claim("w2", lease_s=10.0) == []
        clock.advance(1e-9)  # now == deadline: inclusive expiry
        (stolen,) = board.claim("w2", lease_s=10.0)
        assert stolen.stolen

    def test_steal_bumps_the_fence_and_flags_the_lease(self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        (original,) = board.claim("w1", lease_s=5.0)
        clock.advance(6.0)
        (stolen,) = board.claim("w2", lease_s=5.0)
        assert stolen.stolen and not original.stolen
        assert stolen.fence == original.fence + 1

    def test_reclaim_by_the_same_owner_is_not_a_steal(self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        board.claim("w1", lease_s=5.0)
        clock.advance(6.0)
        (again,) = board.claim("w1", lease_s=5.0)
        assert not again.stolen  # own expired lease, not theft


class TestClaimHardening:
    """Bad claim inputs fail loudly instead of seeding bad deadlines."""

    @pytest.mark.parametrize("lease_s", [0.0, -1.0, -0.001])
    def test_non_positive_lease_is_rejected(self, tmp_path, lease_s):
        board = make_board(tmp_path)
        board.seed(make_specs(1))
        with pytest.raises(ConfigError, match="lease_s"):
            board.claim("w1", lease_s=lease_s)
        # nothing was claimed, nothing was fenced
        assert board.counts()["pending"] == 1

    @pytest.mark.parametrize("limit", [0, -1, -7])
    def test_non_positive_batch_is_rejected(self, tmp_path, limit):
        board = make_board(tmp_path)
        board.seed(make_specs(1))
        with pytest.raises(ConfigError, match="batch"):
            board.claim("w1", lease_s=60.0, limit=limit)
        assert board.counts()["pending"] == 1


class TestFencing:
    def test_stale_fence_cannot_complete_a_stolen_cell(self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        (original,) = board.claim("w1", lease_s=5.0)
        clock.advance(6.0)
        (stolen,) = board.claim("w2", lease_s=5.0)
        # the zombie comes back with its dead token
        assert not board.complete("w1", original.spec_hash,
                                  original.fence)
        assert not board.renew("w1", original.spec_hash,
                               original.fence, 5.0)
        assert board.fail("w1", original.spec_hash, original.fence,
                          "late") == "stale"
        # the thief's token still works
        assert board.complete("w2", stolen.spec_hash, stolen.fence)
        assert board.finished()

    def test_renew_extends_the_deadline(self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        (lease,) = board.claim("w1", lease_s=10.0)
        clock.advance(8.0)
        assert board.renew("w1", lease.spec_hash, lease.fence, 10.0)
        clock.advance(8.0)  # past the original deadline, not the renewed
        assert board.claim("w2", lease_s=10.0) == []

    def test_complete_after_settle_is_rejected(self, tmp_path):
        specs = make_specs(1)
        board = make_board(tmp_path)
        board.seed(specs)
        (lease,) = board.claim("w1", lease_s=60.0)
        board.settle(lease.spec_hash)  # coordinator found it stored
        assert not board.complete("w1", lease.spec_hash, lease.fence)


class TestFailures:
    def test_fail_requeues_with_backoff_until_exhausted(self, tmp_path):
        specs = make_specs(1)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        policy = BackoffPolicy("exponential", base_s=4.0)

        (lease,) = board.claim("w1", lease_s=60.0)
        assert board.fail("w1", lease.spec_hash, lease.fence, "boom",
                          max_attempts=3, backoff=policy) == "requeued"
        # not claimable until the backoff delay passes
        assert board.claim("w1", lease_s=60.0) == []
        clock.advance(4.0)
        (lease,) = board.claim("w1", lease_s=60.0)
        assert lease.attempts == 1
        assert board.fail("w1", lease.spec_hash, lease.fence, "boom",
                          max_attempts=3, backoff=policy) == "requeued"
        clock.advance(8.0)  # exponential: second delay doubles
        (lease,) = board.claim("w2", lease_s=60.0)
        assert board.fail("w2", lease.spec_hash, lease.fence, "boom",
                          max_attempts=3, backoff=policy) == "failed"
        assert board.finished()
        (failure,) = board.failures()
        assert failure["attempts"] == 3
        assert failure["error"] == "boom"

    def test_requeue_forces_done_cells_back_and_fences_out_owners(
            self, tmp_path):
        specs = make_specs(1)
        board = make_board(tmp_path)
        board.seed(specs)
        (lease,) = board.claim("w1", lease_s=60.0)
        board.complete("w1", lease.spec_hash, lease.fence)
        assert board.requeue([lease.spec_hash]) == 1
        assert board.counts()["pending"] == 1
        # the old completion token is dead after the forced requeue
        assert not board.complete("w1", lease.spec_hash, lease.fence)


class TestKillNine:
    def test_sigkilled_worker_cells_are_stolen_and_finished(
            self, tmp_path):
        """kill -9 mid-cell == a lease that is never renewed/settled."""
        specs = make_specs(3)
        clock = FakeClock()
        board = make_board(tmp_path, clock)
        board.seed(specs)
        victim = board.claim("victim", lease_s=5.0, limit=2)
        assert len(victim) == 2  # ...and then the process vanishes

        (first,) = board.claim("survivor", lease_s=5.0)
        board.complete("survivor", first.spec_hash, first.fence)
        clock.advance(5.0)  # victim's deadlines pass
        stolen = board.claim("survivor", lease_s=5.0, limit=4)
        assert [lease.stolen for lease in stolen] == [True, True]
        for lease in stolen:
            assert board.complete("survivor", lease.spec_hash,
                                  lease.fence)
        assert board.finished()
        assert board.counts()["done"] == 3
