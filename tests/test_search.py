import marshal
import os
import signal
import time
from types import SimpleNamespace
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sl2tilings.search
from sl2tilings.cli import main
from sl2tilings.matrices import corner_det3, det2, solve_linear_congruence
from sl2tilings import (
    PqrsParams,
    SearchConfig,
    UnsupportedOperationError,
    ValidationError,
    block_is_fully_wild,
    block_is_sl2,
    brute_force_oracle,
    canonical_block,
    pqrs_tiling,
    search_fully_wild,
    z36_tiling,
)

Z36_BLOCK = (
    (3, 2, 33, 34),
    (4, 3, 32, 33),
    (9, 16, 3, 2),
    (14, 9, 4, 3),
)

# Blocks whose wrapped 2x2 windows all have determinant 1, with their moduli;
# the 2-row and 2-column ones exist only mod 2.
SL2_BLOCKS = [
    (((0, 1), (1, 1)), 2),
    (((0, 1, 1), (1, 0, 1)), 2),
    (((0, 1), (1, 0), (1, 1)), 2),
    (((0, 1, 2), (2, 2, 2), (1, 0, 2)), 3),
    (((0, 1, 1, 2, 3), (3, 1, 2, 1, 0), (1, 2, 1, 1, 1)), 4),
    (Z36_BLOCK, 36),
]


def _sarrus(r):
    (a, b, c), (d, e, f), (g, h, i) = r
    return a * e * i + b * f * g + c * d * h - c * e * g - a * f * h - b * d * i


def _wrapped_reference(block, modulus):
    """(every wrapped det2 is 1, every wrapped centered det3 is nonzero),
    reading each window cell by cell with indices taken mod the shape."""
    h, w = len(block), len(block[0])

    def at(i, j):
        return block[i % h][j % w]

    cells = [(i, j) for i in range(h) for j in range(w)]
    sl2 = all((at(i, j) * at(i + 1, j + 1) - at(i, j + 1) * at(i + 1, j)) % modulus == 1 for i, j in cells)
    wild = all(
        _sarrus([[at(i + di, j + dj) for dj in (-1, 0, 1)] for di in (-1, 0, 1)]) % modulus != 0
        for i, j in cells
    )
    return sl2, wild


@st.composite
def wrapped_cases(draw):
    """A random block of shape 2..5 x 2..5, or a torus translate of an SL2
    block, lifted by a multiple of its modulus and maybe moved in one cell."""
    if draw(st.booleans()):
        modulus = draw(st.integers(2, 60))
        h, w = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        row = st.lists(st.integers(-100, 100), min_size=w, max_size=w)
        rows = draw(st.lists(row, min_size=h, max_size=h))
    else:
        seed, modulus = draw(st.sampled_from(SL2_BLOCKS))
        h, w = len(seed), len(seed[0])
        di, dj = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        lift = draw(st.integers(-2, 2)) * modulus
        rows = [[seed[(i + di) % h][(j + dj) % w] + lift for j in range(w)] for i in range(h)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, h - 1))][draw(st.integers(0, w - 1))] += draw(st.integers(1, modulus - 1))
    return tuple(map(tuple, rows)), modulus


def _in_process(starts):
    """A stand-in for ``search._start`` that runs a worker's share in this
    process at once and records the share."""
    def start(shares):
        starts.append(shares)
        results = [sl2tilings.search._dfs(part) for part in shares]
        return lambda kill=False: results

    return start


def _no_start(shares):
    raise AssertionError("a worker process was started")


class TestPropagate:
    # The DFS derives a southeast cell x from its 2x2 window: nw*x = 1 + ne*sw.
    def test_gcd_fan_out(self):
        assert list(solve_linear_congruence(3, 1 + 2 * 4, 36)) == [3, 15, 27]

    def test_unique(self):
        assert list(solve_linear_congruence(1, 1 + 0 * 0, 5)) == [1]

    def test_two_solutions(self):
        assert list(solve_linear_congruence(2, 1 + 1 * 1, 4)) == [1, 3]

    def test_empty(self):
        assert not solve_linear_congruence(2, 1 + 1 * 2, 4)

    def test_agrees_with_brute_force(self):
        for n in (4, 6, 9):
            for nw in range(n):
                for ne in range(n):
                    for sw in range(n):
                        want = [x for x in range(n) if (nw * x - 1 - ne * sw) % n == 0]
                        assert list(solve_linear_congruence(nw, 1 + ne * sw, n)) == want


class TestValidators:
    def test_z36_block(self):
        assert block_is_sl2(Z36_BLOCK, 36)
        assert block_is_fully_wild(Z36_BLOCK, 36)

    def test_z36_matches_catalog(self):
        rows = tuple(tuple(r) for r in z36_tiling().block.to_int_rows())
        assert rows == Z36_BLOCK

    def test_broken_block(self):
        rows = [list(r) for r in Z36_BLOCK]
        rows[0][0] = 4
        bad = tuple(tuple(r) for r in rows)
        assert not block_is_sl2(bad, 36)

    def test_sl2_blocks(self):
        for block, modulus in SL2_BLOCKS:
            assert block_is_sl2(block, modulus) and _wrapped_reference(block, modulus)[0]

    @given(wrapped_cases())
    def test_predicates_match_sarrus(self, case):
        block, modulus = case
        got = (block_is_sl2(block, modulus), block_is_fully_wild(block, modulus))
        assert got == _wrapped_reference(block, modulus)

    def test_canonical_translation_invariance(self):
        shifted = tuple(
            tuple(Z36_BLOCK[(i + 2) % 4][(j + 3) % 4] for j in range(4))
            for i in range(4)
        )
        assert canonical_block(shifted) == canonical_block(Z36_BLOCK)

    @given(st.integers(1, 5).flatmap(lambda h: st.integers(1, 5).flatmap(lambda w: st.one_of(
        # A random block, or one of period (ph, pw) with ph | h and pw | w,
        # whose translates tie on the first row and on the whole block.
        st.lists(st.lists(st.integers(0, 3), min_size=w, max_size=w), min_size=h, max_size=h),
        st.tuples(st.sampled_from([d for d in range(1, h + 1) if h % d == 0]),
                  st.sampled_from([d for d in range(1, w + 1) if w % d == 0]),
                  st.lists(st.lists(st.integers(0, 2), min_size=w, max_size=w), min_size=h, max_size=h)).map(
            lambda t: [[t[2][i % t[0]][j % t[1]] for j in range(w)] for i in range(h)])))))
    def test_canonical_is_least_of_every_translate(self, rows):
        block = tuple(map(tuple, rows))
        h, w = len(block), len(block[0])
        translates = [tuple(tuple(block[(i + di) % h][(j + dj) % w] for j in range(w)) for i in range(h))
                      for di in range(h) for dj in range(w)]
        assert canonical_block(block) == min(translates)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchConfig(1)
        with pytest.raises(ValidationError):
            SearchConfig(4, rows=1)
        with pytest.raises(ValidationError):
            SearchConfig(4, node_budget=0)
        with pytest.raises(ValidationError):
            SearchConfig(4, worker_count=0)


class TestSearch:
    def test_2x2_never_fully_wild(self):
        for n in range(2, 7):
            result = search_fully_wild(SearchConfig(n, 2, 2))
            assert result.solutions == ()
            assert result.stats.solutions == 0

    def test_oracle_equivalence_2x2(self):
        for n in range(2, 7):
            dfs = search_fully_wild(SearchConfig(n, 2, 2))
            pruned = search_fully_wild(SearchConfig(n, 2, 2, prune_nonunits=True))
            oracle = brute_force_oracle(n, 2, 2)
            assert dfs.solutions == oracle.solutions
            assert pruned.solutions == oracle.solutions

    def test_oracle_equivalence_small_4x4(self):
        dfs = search_fully_wild(SearchConfig(2, 4, 4))
        oracle = brute_force_oracle(2, 4, 4)
        assert dfs.solutions == oracle.solutions == ()

    def test_prime_modulus_empty(self):
        for n in (2, 3, 5):
            assert search_fully_wild(SearchConfig(n, 2, 2)).solutions == ()
        assert search_fully_wild(SearchConfig(3, 4, 4)).solutions == ()
        # Over Z/p^k every entry of a fully wild block is a multiple of p (a
        # unit e with e * det3 = 0 would force det3 = 0), so every det2 is 0
        # mod p, never 1: no block exists, and the search finds none.
        cases = [(4, 2, 2), (8, 2, 2), (9, 2, 2), (25, 2, 2), (4, 3, 3), (8, 3, 3), (9, 3, 3),
                 (8, 3, 4), (9, 3, 4), (4, 4, 4)]
        for n, h, w in cases:
            assert search_fully_wild(SearchConfig(n, h, w)).solutions == (), (n, h, w)

    def test_budget_exhaustion(self):
        full = search_fully_wild(SearchConfig(6, 2, 2))
        capped = search_fully_wild(SearchConfig(6, 2, 2, node_budget=5))
        assert capped.stats.budget_exhausted
        assert capped.stats.nodes <= 5
        assert set(capped.solutions) <= set(full.solutions)
        assert not full.stats.budget_exhausted

    def test_worker_count_invariance(self):
        solo = search_fully_wild(SearchConfig(5, 2, 2))
        multi = search_fully_wild(SearchConfig(5, 2, 2, worker_count=3))
        assert solo.solutions == multi.solutions
        assert solo.stats.nodes == multi.stats.nodes
        assert solo.stats.solutions == multi.stats.solutions

    def test_large_job_count_is_bounded(self, monkeypatch):
        # A stand-in for the seam that forks a worker runs its share in this
        # process and records it: no real process is started for the large
        # job count.
        starts = []
        monkeypatch.setattr(sl2tilings.search, "_start", _in_process(starts))
        solo = search_fully_wild(SearchConfig(5, 2, 2))
        # Without a budget the parts take the row-0 orbit representatives in
        # turn.  2x2 mod 5 has four, each cell 0 or 1 (its orbit under the
        # units is {0} or {1, 2, 3, 4}), so there are min(J, cpus, 4) parts,
        # each in a process of its own counting this one, and a single part
        # runs in this process with no fork.
        for cpus, processes in ((64, 4), (2, 2), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            starts.clear()
            multi = search_fully_wild(SearchConfig(5, 2, 2, worker_count=10_000))
            assert 1 + len(starts) == processes
            assert multi.solutions == solo.solutions
            assert multi.stats.nodes == solo.stats.nodes
        # Per-worker budgets are those of one worker per first-cell value.
        budgeted = [
            search_fully_wild(SearchConfig(5, 2, 2, node_budget=7, worker_count=j))
            for j in (5, 10_000)
        ]
        assert len({(r.solutions, r.stats.nodes, r.stats.budget_exhausted) for r in budgeted}) == 1

    def test_per_worker_budgets_sum_to_budget(self):
        # 7 nodes over 3 workers: they get 3, 2 and 2 and spend them all.
        capped = search_fully_wild(SearchConfig(6, 2, 2, node_budget=7, worker_count=3))
        assert capped.stats.budget_exhausted
        assert capped.stats.nodes == 7

    def test_node_counting_monotone(self):
        plain = search_fully_wild(SearchConfig(6, 2, 2))
        pruned = search_fully_wild(SearchConfig(6, 2, 2, prune_nonunits=True))
        assert 0 < pruned.stats.nodes <= plain.stats.nodes

    def test_unbudgeted_step_bound(self, monkeypatch):
        # max(N - 1 residues, |D|^w nodes), |D| = N or 1 under pruning, may
        # reach 2^20 and no more: 1024^2 and 2^20 residues pass, one more of
        # either is refused, and so is 4x4 mod 36 (36^4 nodes).  The DFS runs
        # below row 0 are stubbed, so only row 0's count, |D| + |D|^2 for two
        # columns, is paid for.  The non-units mod 2^20 + 1 = 17 * 61681 are
        # the multiples of 17 and those of 61681, 0 among both.
        monkeypatch.setattr(sl2tilings.search, "_run", lambda parts: [((), 0, False)] * len(parts))
        for config, d in ((SearchConfig(1024, 3, 2), 1024),
                          (SearchConfig(2**20 + 1, 2, 2, prune_nonunits=True), 61681 + 17 - 1)):
            assert search_fully_wild(config).stats.nodes == d + d * d
        for config in (SearchConfig(1025, 3, 2), SearchConfig(2**20 + 2, 2, 2, prune_nonunits=True),
                       SearchConfig(36, 4, 4)):
            with pytest.raises(UnsupportedOperationError, match="over the bound of 1048576 steps; pass --budget"):
                search_fully_wild(config)


class TestTraversal:
    # Node counts of the row-major DFS; any change to the fill order, the
    # candidate order or the place of the budget check moves them.
    @pytest.mark.parametrize(
        "config, nodes, exhausted",
        [
            (SearchConfig(4, 4, 4), 54_516, False),
            (SearchConfig(4, 4, 4, node_budget=54_515), 54_515, True),
            (SearchConfig(4, 4, 4, node_budget=54_516), 54_516, False),
            (SearchConfig(6, 3, 3), 5_298, False),
            (SearchConfig(6, 3, 3, prune_nonunits=True), 404, False),
            (SearchConfig(2, 5, 6), 21_054, False),
            (SearchConfig(36, 4, 4, node_budget=20_000), 20_000, True),
            (SearchConfig(5, 4, 4, node_budget=1_000, worker_count=2), 1_000, True),
            (SearchConfig(5, 4, 4), 194_185, False),
            (SearchConfig(7, 4, 4), 1_377_551, False),
            (SearchConfig(8, 3, 4), 264_776, False),
            (SearchConfig(5, 3, 3), 3_380, False),
            (SearchConfig(12, 3, 4, prune_nonunits=True), 65_992, False),
            (SearchConfig(10, 4, 4, prune_nonunits=True), 72_130, False),
            (SearchConfig(6, 4, 4, prune_nonunits=True), 8_216, False),
        ],
    )
    def test_node_counts(self, config, nodes, exhausted):
        stats = search_fully_wild(config).stats
        assert (stats.nodes, stats.budget_exhausted) == (nodes, exhausted)

    def test_cli_summary(self, capsys):
        assert main(["search", "--modulus", "4"]) == 0
        assert capsys.readouterr().out.endswith("# solutions=0 nodes=54516 budget_exhausted=false\n")

    @pytest.mark.parametrize("budget, jobs", [(1001, 2), (1, 2), (5, 3)])
    def test_cli_budget_split(self, capsys, budget, jobs):
        # An uneven budget still caps the nodes of all workers together.
        assert main(["search", "--modulus", "5", "--budget", str(budget), "--jobs", str(jobs)]) == 0
        assert capsys.readouterr() == (f"# solutions=0 nodes={budget} budget_exhausted=true\n", "")

    def test_no_process_for_an_empty_budget_share(self, capsys, monkeypatch):
        # One budgeted node for two jobs: a second worker would get none, so
        # no worker is started at all.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sl2tilings.search, "_start", _no_start)
        assert main(["search", "--modulus", "5", "--budget", "1", "--jobs", "2"]) == 0
        assert capsys.readouterr() == ("# solutions=0 nodes=1 budget_exhausted=true\n", "")

    def test_deep_block_needs_no_recursion(self, capsys):
        # 2400 cells, deeper than the interpreter's recursion limit; the
        # budget bounds the work.
        assert main(["search", "--modulus", "2", "--rows", "2", "--cols", "1200", "--budget", "5000"]) == 0
        assert capsys.readouterr() == ("# solutions=0 nodes=5000 budget_exhausted=true\n", "")


def _budgeted(config, budget):
    """(solutions, nodes, budget_exhausted) of the config under a budget."""
    result = search_fully_wild(SearchConfig(config.modulus, config.rows, config.cols,
                                            prune_nonunits=config.prune_nonunits, node_budget=budget))
    return result.solutions, result.stats.nodes, result.stats.budget_exhausted


def _walk_every_row(monkeypatch):
    """Turn off the count of rows with no successor, so that the DFS walks
    their candidates cell by cell: it asks whether gcd(row[0], row[1], n) > 1,
    and a three-argument gcd now answers 1.  Returns the calls it answered."""
    calls = []

    def gcd_of_two(*args):
        if len(args) == 3:
            calls.append(args)
            return 1
        return gcd(*args)

    monkeypatch.setattr(sl2tilings.search, "gcd", gcd_of_two)
    return calls


class TestDeadRows:
    # A complete row with gcd(row[0], row[1], N) > 1 has no successor: every
    # candidate of the next row's first cell is a node that closes nothing.
    # The DFS adds those |D| nodes at once; these tests hold it to the walk.

    @pytest.mark.parametrize("prune", [False, True])
    def test_budgets_across_the_first_dead_rows_4x4_mod36(self, monkeypatch, prune):
        # Row 0 = (0, 0, 0, 0) completes at 4 nodes and has no successor, nor
        # have the rows after it: unpruned they add 36 nodes each (at 40, 77,
        # ...), pruned 24 (at 28, 53, 78, ...).  Budgets 1 to 80 end before,
        # inside and just after them; the unbudgeted total T is far over 80.
        config = SearchConfig(36, 4, 4, prune_nonunits=prune)
        budgets = range(1, 81)
        counted = [_budgeted(config, b) for b in budgets]
        assert [(nodes, exhausted) for _, nodes, exhausted in counted] == [(b, True) for b in budgets]
        calls = _walk_every_row(monkeypatch)
        assert [_budgeted(config, b) for b in budgets] == counted
        assert calls

    @pytest.mark.parametrize(
        "config, total",
        [(SearchConfig(6, 3, 3), 5_298), (SearchConfig(6, 4, 4, prune_nonunits=True), 8_216),
         (SearchConfig(8, 3, 3), 17_736)],
    )
    def test_budgets_up_to_the_total(self, monkeypatch, config, total):
        # With the wild filter off the leaves are the SL2 blocks, so the
        # solutions grow with the budget; nodes == min(B, T) and the budget
        # runs out exactly when B < T.
        monkeypatch.setattr(sl2tilings.search, "_leaf_is_wild", lambda b, n, centers: True)
        budgets = [*range(1, 100), *range(100, total, total // 37), total - 1, total, total + 1]
        counted = [_budgeted(config, b) for b in budgets]
        assert [(nodes, exhausted) for _, nodes, exhausted in counted] == [(min(b, total), b < total) for b in budgets]
        assert all(set(a) <= set(b) for (a, _, _), (b, _, _) in zip(counted, counted[1:]))
        assert counted[-1][0] == search_fully_wild(config).solutions != ()
        calls = _walk_every_row(monkeypatch)
        assert [_budgeted(config, b) for b in budgets] == counted
        assert calls


class TestWorkers:
    # Every test here forks one worker at most: the ``forks`` fixture sets 2
    # CPUs, and the caller runs the other share.
    CONFIG = SearchConfig(5, 4, 4, node_budget=2_000, worker_count=2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked by the test, as the caller saw them."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids, fork = [], os.fork

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return pids

    @staticmethod
    def assert_reaped(pids):
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    def test_forked_worker_matches_one_process(self, forks, monkeypatch):
        forked = search_fully_wild(self.CONFIG)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert search_fully_wild(self.CONFIG) == forked
        assert forked.stats.nodes == 2_000
        self.assert_reaped(forks)

    @pytest.mark.parametrize("failure, code", [("raise", 1), ("kill", -9)])
    def test_failing_worker_makes_the_search_raise(self, forks, monkeypatch, failure, code):
        caller, dfs = os.getpid(), sl2tilings.search._dfs

        def worker_fails(part):
            if os.getpid() != caller:
                if failure == "kill":
                    os.kill(os.getpid(), 9)
                raise ValueError("a failing worker")
            return dfs(part)

        monkeypatch.setattr(sl2tilings.search, "_dfs", worker_fails)
        # A worker that raised names its error; a killed one has none to send.
        error = r": ValueError\('a failing worker'\)" if failure == "raise" else ""
        with pytest.raises(RuntimeError, match=f"^search worker [0-9]+ failed with exit code {code}{error}$"):
            search_fully_wild(self.CONFIG)
        self.assert_reaped(forks)

    def test_truncated_payload_makes_the_search_raise(self, forks, monkeypatch):
        truncated = SimpleNamespace(dumps=lambda obj: marshal.dumps(obj)[:-1], loads=marshal.loads)
        monkeypatch.setattr(sl2tilings.search, "marshal", truncated)
        with pytest.raises((EOFError, ValueError)):
            search_fully_wild(self.CONFIG)
        self.assert_reaped(forks)

    def test_failing_caller_kills_its_worker(self, forks, monkeypatch):
        # The worker would sleep for a minute; the caller's own share raises,
        # so it kills the worker and reaps it before the error goes on.
        caller = os.getpid()

        def caller_fails(part):
            if os.getpid() == caller:
                raise ValueError("a failing caller")
            time.sleep(60)

        monkeypatch.setattr(sl2tilings.search, "_dfs", caller_fails)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="a failing caller"):
            search_fully_wild(self.CONFIG)
        assert time.perf_counter() - start < 10
        self.assert_reaped(forks)

    def test_interrupted_caller_kills_its_worker(self, forks, monkeypatch):
        # The worker would sleep for a minute; an alarm interrupts the caller
        # while it waits on the worker's pipe, and the worker is killed and
        # reaped before the interruption goes on.
        caller, dfs = os.getpid(), sl2tilings.search._dfs

        class Interrupted(Exception):
            pass

        def slow_worker(part):
            if os.getpid() != caller:
                time.sleep(60)
            return dfs(part)

        def interrupt(signum, frame):
            raise Interrupted

        monkeypatch.setattr(sl2tilings.search, "_dfs", slow_worker)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Interrupted):
                search_fully_wild(self.CONFIG)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 10
        self.assert_reaped(forks)

    def test_without_fork_the_parts_run_in_turn(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        starts = []
        monkeypatch.setattr(sl2tilings.search, "_start", _in_process(starts))
        expected = search_fully_wild(self.CONFIG)
        assert len(starts) == 1
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(sl2tilings.search, "_start", _no_start)
        assert search_fully_wild(self.CONFIG) == expected


def _scalings(block, modulus):
    """Every unit scaling of the block, straight from its definition.  Row i
    times r_i and column j times c_j multiplies the wrapped 2x2 window at
    (i, j) by r_i * r_(i+1) * c_j * c_(j+1), which must be 1.  Both sides
    even: rows alternately times 1 and rho, columns alternately times a and
    b, with rho * a * b = 1, for every pair of units a, b.  Even width and
    odd height: column j times u^((-1)^j); odd width and even height: row i
    likewise; both odd: every cell times a u with u^2 = 1."""
    h, w = len(block), len(block[0])
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    if h % 2 == 0 and w % 2 == 0:
        factors = [([1, pow(a * b, -1, modulus)], [a, b]) for a in units for b in units]
    else:
        factors = []
        for u in units:
            if h % 2 and w % 2 and u * u % modulus != 1:
                continue
            v = pow(u, -1, modulus)
            factors.append(([1, 1], [u, v]) if w % 2 == 0 else ([u, v], [1, 1]) if h % 2 == 0 else ([u, u], [1, 1]))
    for r, c in factors:
        yield tuple(tuple(block[i][j] * r[i % 2] * c[j % 2] % modulus for j in range(w)) for i in range(h))


class TestRangeCache:
    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(6, 4, 4),
            SearchConfig(36, 4, 4, node_budget=20_000),
            SearchConfig(6, 4, 4, prune_nonunits=True),
            SearchConfig(5, 4, 4, node_budget=20_000, worker_count=2),
        ],
    )
    def test_a_three_entry_cache_changes_nothing(self, monkeypatch, config):
        # Holding three ranges, the cache still hands out the same ranges, so
        # the traversal is the same node for node; it only solves more
        # congruences.
        calls = []

        def counted(a, c, modulus):
            calls.append(a)
            return solve_linear_congruence(a, c, modulus)

        monkeypatch.setattr(sl2tilings.search, "solve_linear_congruence", counted)
        outcomes = []
        for bound in (1 << 16, 3):
            monkeypatch.setattr(sl2tilings.search, "_MAX_RANGES", bound)
            calls.clear()
            result = search_fully_wild(config)
            outcomes.append(((result.solutions, result.stats.nodes, result.stats.budget_exhausted), len(calls)))
        (default, default_calls), (small, small_calls) = outcomes
        assert small == default
        # The budgeted runs meet too few congruences to fill three entries;
        # the two-worker one solves them in its own processes.
        if config.node_budget is None:
            assert 0 < default_calls < small_calls


class TestUnitQuotient:
    # (modulus, rows, cols): even x even, odd x even, even x odd and odd x odd
    # shapes whose SL2 classes are non-empty, so the comparisons with the wild
    # filter off see real solutions; mod 3 and 5 have a unit orbit of size 2
    # and 4, mod 8 and 10 have several units with u^2 = 1.  4x4 mod 5 is the
    # first even x even shape with more than two units: 1,136 SL2 classes.
    SHAPES = [(3, 4, 4), (5, 3, 4), (5, 4, 3), (8, 3, 3), (10, 3, 3), (5, 4, 4)]

    @pytest.mark.parametrize(
        "modulus, rows, cols, prune",
        # 4x4 mod 6 is the one small case whose pruned classes are non-empty.
        [(*shape, prune) for shape in SHAPES for prune in (False, True)] + [(6, 4, 4, True)],
    )
    def test_matches_plain_traversal(self, monkeypatch, modulus, rows, cols, prune):
        monkeypatch.setattr(sl2tilings.search, "_leaf_is_wild", lambda b, n, centers: True)
        # A budget runs the plain traversal; this one, over the 2 * N^(rows*cols)
        # nodes any tree has, never runs out.
        budget = 2 * modulus ** (rows * cols)
        plain = search_fully_wild(SearchConfig(modulus, rows, cols, prune_nonunits=prune, node_budget=budget))
        quotient = search_fully_wild(SearchConfig(modulus, rows, cols, prune_nonunits=prune))
        assert (quotient.solutions, quotient.stats.nodes, quotient.stats.budget_exhausted) == (
            plain.solutions, plain.stats.nodes, plain.stats.budget_exhausted)
        assert quotient.solutions or prune
        if (modulus, rows, cols, prune) == (5, 4, 4, False):
            assert len(quotient.solutions) == 1_136

    def test_first_cell_counts_4x4_mod5(self):
        # The subtree under x has the size of the one under u*x: 0 alone, and
        # 1..4 as one orbit.  A budget the tree never reaches runs the plain
        # traversal from each first cell.
        counts = [sl2tilings.search._dfs((5, 4, 4, False, slice(x, x + 1), 10**6))[1] for x in range(5)]
        assert counts == [28_153] + [41_508] * 4
        assert search_fully_wild(SearchConfig(5, 4, 4)).stats.nodes == sum(counts) == 194_185

    @pytest.mark.parametrize("modulus, rows, cols", SHAPES)
    def test_solutions_closed_under_scalings(self, monkeypatch, modulus, rows, cols):
        monkeypatch.setattr(sl2tilings.search, "_leaf_is_wild", lambda b, n, centers: True)
        solutions = set(search_fully_wild(SearchConfig(modulus, rows, cols)).solutions)
        for block in solutions:
            for scaled in _scalings(block, modulus):
                assert canonical_block(scaled) in solutions

    def test_row_orbits_are_the_orbits_of_row_0(self):
        # Orbits of row 0 under the scalings above, each block read by its
        # row 0 alone: the stream gives the least member of each orbit once,
        # with the orbit's size, and its scalings reach every member once.
        for modulus, rows, cols in [*self.SHAPES, (12, 2, 2), (9, 3, 2), (2, 3, 4), (2, 4, 4)]:
            orbits = {}
            for row in product(range(modulus), repeat=cols):
                block = (row, *[(0,) * cols] * (rows - 1))
                orbits[row] = frozenset(image[0] for image in _scalings(block, modulus))
            streamed = list(sl2tilings.search._row_orbits(modulus, rows, cols, False))
            assert [row for row, _, _ in streamed] == sorted({min(orbit) for orbit in orbits.values()})
            for row, size, scalings in streamed:
                block = (row, *[(0,) * cols] * (rows - 1))
                images = [sl2tilings.search._scaled(block, a, b, modulus)[0] for a, b in scalings]
                assert size == len(images) == len(set(images)) and set(images) == orbits[row]

    def test_pruned_large_prime_modulus_is_fast(self):
        # Under pruning a prime modulus leaves row 0 all zeros, which every
        # scaling fixes, so the quotient needs no list of its 10^6 units: the
        # few passes over the residues take about 1 s.
        start = time.perf_counter()
        result = search_fully_wild(SearchConfig(1_000_003, 2, 2, prune_nonunits=True))
        assert time.perf_counter() - start < 2
        assert (result.solutions, result.stats.nodes) == ((), 3)

    def test_scalings_keep_the_z36_block_fully_wild(self):
        images = list(_scalings(Z36_BLOCK, 36))
        assert len(images) == 12 * 12
        assert all(block_is_sl2(b, 36) and block_is_fully_wild(b, 36) for b in images)

    def test_candidates_are_the_nonunits(self):
        # The traversal above runs the DFS's own candidates, so this pins
        # them against a gcd filter written out here.
        for n in range(2, 61):
            assert list(sl2tilings.search._candidates(n, True)) == [x for x in range(n) if gcd(x, n) != 1]
            assert list(sl2tilings.search._candidates(n, False)) == list(range(n))


class TestOracle:
    def test_state_guard(self):
        with pytest.raises(UnsupportedOperationError):
            brute_force_oracle(7, 4, 4)

    def test_state_guard_builds_no_power_past_28_cells(self):
        # 2^29 is over the guard already; 10^4900 would not even print.
        for modulus, rows, cols in ((2, 5, 6), (10, 70, 70)):
            with pytest.raises(UnsupportedOperationError,
                               match=rf"^{modulus}\^{rows * cols} states exceeds the 2\^28 oracle guard"):
                brute_force_oracle(modulus, rows, cols)

    def test_row_pairs_grow_column_by_column(self, monkeypatch):
        calls = []

        def counted(*cells):
            calls.append(cells)
            return det2(*cells)

        monkeypatch.setattr(sl2tilings.search, "det2", counted)
        brute_force_oracle(3, 2, 6)
        assert len(calls) < 3**12 / 10

    def test_counts_all_states(self):
        result = brute_force_oracle(3, 2, 2)
        assert result.stats.nodes == 3**4
        result = brute_force_oracle(2, 4, 4)
        assert result.stats.nodes == 2**16

    @pytest.mark.parametrize(
        "modulus, rows, cols, classes, blocks",
        [(4, 4, 4, 430, 6656), (4, 3, 4, 32, 384), (6, 3, 3, 20, 144), (3, 3, 4, 10, 120)],
    )
    def test_equivalence_on_all_sl2_blocks(self, monkeypatch, modulus, rows, cols, classes, blocks):
        # With a wild filter that accepts every block, the DFS and the oracle
        # both return the torus classes of all wrapped SL2 blocks: a non-empty
        # set, where the fully-wild sets at these moduli are empty.  The DFS
        # checks its leaves with _leaf_is_wild, the oracle with
        # block_is_fully_wild.
        monkeypatch.setattr(sl2tilings.search, "_leaf_is_wild", lambda b, n, centers: True)
        monkeypatch.setattr(sl2tilings.search, "block_is_fully_wild", lambda block, n: True)
        dfs = search_fully_wild(SearchConfig(modulus, rows, cols))

        def forbidden(*args):
            raise AssertionError("the oracle must not solve congruences")

        monkeypatch.setattr(sl2tilings.search, "solve_linear_congruence", forbidden)
        oracle = brute_force_oracle(modulus, rows, cols, allow_large=True)
        assert dfs.solutions == oracle.solutions
        assert len(oracle.solutions) == classes
        assert sum(map(_torus_orbit_size, oracle.solutions)) == blocks
        assert all(block_is_sl2(block, modulus) for block in oracle.solutions)
        assert oracle.stats.nodes == modulus ** (rows * cols)


class TestLeafCheck:
    # Shapes whose wrapped SL2 blocks the oracle lists with its wild filter
    # off; the 2-row and 2-column ones exist only mod 2.
    SHAPES = [(4, 4, 4), (6, 3, 3), (3, 3, 4), (8, 3, 3), (10, 3, 3),
              (2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 4, 2), (2, 2, 5), (2, 5, 2), (2, 2, 6), (2, 6, 2)]

    def test_corner_formula_on_every_wrapped_sl2_block(self, monkeypatch):
        monkeypatch.setattr(sl2tilings.search, "block_is_fully_wild", lambda block, n: True)
        cases = [(t, n) for n, h, w in self.SHAPES
                 for block in brute_force_oracle(n, h, w, allow_large=True).solutions for t in _translates(block)]
        pqrs = tuple(map(tuple, pqrs_tiling(PqrsParams(3, 2, 4, 3)).block.to_int_rows()))
        known = [(t, 36) for t in _translates(Z36_BLOCK)] + [(t, 72) for t in _translates(pqrs)]
        cases += known
        assert (len(cases), len(known)) == (8_296, 32)
        wild = 0
        for block, n in cases:
            h, w = len(block), len(block[0])
            for i in range(h):
                for j in range(w):
                    window = [[block[(i + di) % h][(j + dj) % w] for dj in (-1, 0, 1)] for di in (-1, 0, 1)]
                    corners = (window[0][0], window[0][2], window[2][0], window[2][2])
                    assert corner_det3(window[1][1], corners) % n == _sarrus(window) % n
            centers = [((i - 1) % h, i, (i + 1) % h, (j - 1) % w, j, (j + 1) % w) for i in range(h) for j in range(w)]
            leaf = sl2tilings.search._leaf_is_wild(list(map(list, block)), n, centers)
            assert leaf == block_is_fully_wild(block, n)
            wild += leaf
        # The translates of z36 and pqrs are fully wild, and no other block is.
        assert wild == len(known)


def _translates(block):
    """The distinct torus translates of the block, in ascending order."""
    h, w = len(block), len(block[0])
    return sorted({
        tuple(tuple(block[(i + di) % h][(j + dj) % w] for j in range(w)) for i in range(h))
        for di in range(h)
        for dj in range(w)
    })


def _torus_orbit_size(block):
    return len(_translates(block))
