"""The contract of the immutable value classes: constructor arguments and
checks, repr, equality, hashing, immutability and pickling."""

import pickle

import pytest

from sl2tilings import (
    INTEGERS,
    POLYNOMIALS,
    AuditFinding,
    BlockClass,
    DensitySample,
    FormalParameters,
    IntegerRing,
    Matrix,
    ModularRing,
    NumericParameters,
    Patched,
    PeriodicBlock,
    PolynomialRing,
    PqrsParams,
    RankEntry,
    RankReport,
    RenderOptions,
    RuleBased,
    SearchConfig,
    SearchResult,
    SearchStats,
    SublatticeSpec,
    ValidationError,
    Violation,
    WildnessReport,
    Window,
    unit_tiling,
    wildness_report,
)

Z = INTEGERS
ZERO, ONE, MINUS = Z.value(0), Z.value(1), Z.value(-1)
UNIT_RULE = RuleBased(Z, (ZERO, ONE, ZERO, MINUS))
WILDEST = SublatticeSpec(3, 1, 10, 6)
WINDOW = Window(Matrix.from_ints(Z, [[1, 1], [0, 1]]), (2, -1))
MATRIX_REPR = "Matrix(spec=IntegerRing(), rows=2, cols=2, entries=(1, 1, 0, 1))"
WINDOW_REPR = f"Window(matrix={MATRIX_REPR}, origin=(2, -1))"
UNIT_RULE_REPR = (
    "RuleBased(ring=IntegerRing(), table=(RingValue(spec=IntegerRing(), payload=0), "
    "RingValue(spec=IntegerRing(), payload=1), RingValue(spec=IntegerRing(), payload=0), "
    "RingValue(spec=IntegerRing(), payload=-1)))"
)

# One instance of each class, its fields in constructor order, and its repr.
VALUES = [
    (IntegerRing(), (), "IntegerRing()"),
    (ModularRing(6), ("modulus",), "ModularRing(modulus=6)"),
    (PolynomialRing(), (), "PolynomialRing()"),
    (POLYNOMIALS.variable(3) * POLYNOMIALS.value(-2), ("spec", "payload"),
     "RingValue(spec=PolynomialRing(), payload=((((3, 1),), -2),))"),
    (Matrix.from_ints(ModularRing(6), [[5]]), ("spec", "rows", "cols", "entries"),
     "Matrix(spec=ModularRing(modulus=6), rows=1, cols=1, entries=(5,))"),
    (PqrsParams(3, 2, 4, 3), ("p", "q", "r", "s"), "PqrsParams(p=3, q=2, r=4, s=3)"),
    (RenderOptions(labels=True), ("cell_size", "labels"), "RenderOptions(cell_size=24, labels=True)"),
    (SearchConfig(5, 3, node_budget=9),
     ("modulus", "rows", "cols", "prune_nonunits", "node_budget", "worker_count"),
     "SearchConfig(modulus=5, rows=3, cols=4, prune_nonunits=False, node_budget=9, worker_count=1)"),
    (SearchStats(7, 1, True), ("nodes", "solutions", "budget_exhausted"),
     "SearchStats(nodes=7, solutions=1, budget_exhausted=True)"),
    (SearchResult((((1, 2), (3, 4)),), SearchStats(7, 1, False)), ("solutions", "stats"),
     "SearchResult(solutions=(((1, 2), (3, 4)),), "
     "stats=SearchStats(nodes=7, solutions=1, budget_exhausted=False))"),
    (SublatticeSpec(13, -1, 10, 26), ("u", "v", "m", "t"), "SublatticeSpec(u=3, v=9, m=10, t=6)"),
    (FormalParameters(), (), "FormalParameters()"),
    (NumericParameters.from_mapping({(-1, 3): 5}, 2), ("values", "default"),
     "NumericParameters(values=(((-1, 3), 5),), default=2)"),
    (UNIT_RULE, ("ring", "table"), UNIT_RULE_REPR),
    (PeriodicBlock(Z, WINDOW.matrix), ("ring", "block"),
     f"PeriodicBlock(ring=IntegerRing(), block={MATRIX_REPR})"),
    (Patched(Z, UNIT_RULE, WILDEST, NumericParameters((), 1)), ("ring", "base", "lattice", "parameters"),
     f"Patched(ring=IntegerRing(), base={UNIT_RULE_REPR}, lattice=SublatticeSpec(u=3, v=1, m=10, t=6), "
     "parameters=NumericParameters(values=(), default=1))"),
    (WINDOW, ("matrix", "origin"), WINDOW_REPR),
    (Violation(2, -1, MINUS), ("i", "j", "value"),
     "Violation(i=2, j=-1, value=RingValue(spec=IntegerRing(), payload=-1))"),
    (wildness_report(unit_tiling(), 0, 0, 1, 2), ("origin", "rows", "cols", "wild", "colors", "violations"),
     "WildnessReport(origin=(0, 0), rows=1, cols=2, wild=((False, False),), colors=(("
     "<CellColor.ZERO_TAME: 'zero-tame'>, <CellColor.PLUS_ONE: 'plus-one'>),), violations=())"),
    (DensitySample(1, 2, 5), ("radius", "wild", "total"), "DensitySample(radius=1, wild=2, total=5)"),
    (AuditFinding(1, 2, "dodgson", "entry"), ("i", "j", "check", "detail"),
     "AuditFinding(i=1, j=2, check='dodgson', detail='entry')"),
    (BlockClass("0 +", WINDOW, 3), ("encoding", "representative", "orbit_size"),
     f"BlockClass(encoding='0 +', representative={WINDOW_REPR}, orbit_size=3)"),
    (RankEntry(BlockClass("0 +", WINDOW, 3), 1, "symbolic"), ("block_class", "deficiency", "method"),
     f"RankEntry(block_class=BlockClass(encoding='0 +', representative={WINDOW_REPR}, orbit_size=3), "
     "deficiency=1, method='symbolic')"),
    (RankReport(1, ()), ("n", "entries"), "RankReport(n=1, entries=())"),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_repr(value, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_equal_and_hash_by_fields(value, fields, text):
    astuple = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(astuple)
    twin = type(value)(*astuple)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert value != astuple


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_are_read_only(value, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_equality_across_classes_and_values():
    assert IntegerRing() == IntegerRing() != PolynomialRing()
    assert ModularRing(6) == ModularRing(6) != ModularRing(7)
    assert FormalParameters() == FormalParameters()
    assert Z.value(3) == Z.value(3) != ModularRing(5).value(3)
    assert Z.value(3) != 3 and not Z.value(3) == 3
    assert SearchStats(1, 0, False) != SearchConfig(2)
    assert NumericParameters(((((0, 0), 2),)), 1) != NumericParameters((), 1)
    assert len({Z.value(3), Z.value(3), POLYNOMIALS.value(3)}) == 2


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_every_class_builds_by_keyword(value, fields, text):
    astuple = tuple(getattr(value, name) for name in fields)
    assert type(value)(**dict(zip(fields, astuple))) == value


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_wrong_arguments_raise_type_error(value, fields, text):
    cls, astuple = type(value), tuple(getattr(value, name) for name in fields)
    # One field too few, unless the last field has a default.
    if fields and not cls.__init__.__defaults__:
        with pytest.raises(TypeError):
            cls(*astuple[:-1])
    with pytest.raises(TypeError):
        cls(*astuple, None)
    with pytest.raises(TypeError):
        cls(*astuple, unknown=None)


def test_record_type_error_names_the_fields():
    message = "Window takes the fields (matrix, origin)"
    for build in (lambda: Window(WINDOW.matrix), lambda: Window(WINDOW.matrix, (0, 0), 1),
                  lambda: Window(WINDOW.matrix, origin=(0, 0), size=1),
                  lambda: Window(WINDOW.matrix, matrix=WINDOW.matrix)):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message
    assert Window(WINDOW.matrix, origin=(2, -1)) == Window(origin=(2, -1), matrix=WINDOW.matrix) == WINDOW


def test_keyword_construction():
    assert SublatticeSpec(u=3, v=1, m=10, t=6) == WILDEST
    assert RenderOptions(cell_size=10, labels=True) == RenderOptions(10, True)
    assert SearchConfig(4, 3, 2, True, 100, 2) == SearchConfig(
        modulus=4, rows=3, cols=2, prune_nonunits=True, node_budget=100, worker_count=2)


def test_pickle_round_trips():
    numeric = Patched(Z, UNIT_RULE, WILDEST, NumericParameters.from_mapping({(0, 6): 5}, 2))
    for value in (
        SearchConfig(36, node_budget=200, worker_count=2),
        WINDOW,
        numeric,
        Patched(POLYNOMIALS, RuleBased(POLYNOMIALS, tuple(map(POLYNOMIALS.value, (0, 1, 0, -1)))),
                WILDEST, FormalParameters()),
        Z.value(-7),
        POLYNOMIALS.variable(2),
    ):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy is not value
        assert repr(copy) == repr(value)
    copy = pickle.loads(pickle.dumps(numeric))
    assert (copy.entry(0, 6), copy.entry(1, 3)) == (Z.value(5), Z.value(2))


REFUSALS = [
    (lambda: ModularRing(1), "modulus must be at least 2, got 1"),
    (lambda: PolynomialRing().variable(0), "variable index must be positive, got 0"),
    (lambda: SearchConfig(1), "modulus must be at least 2, got 1"),
    (lambda: SearchConfig(4, 1, 4), "block shape must be at least 2x2"),
    (lambda: SearchConfig(4, 4, 1), "block shape must be at least 2x2"),
    (lambda: SearchConfig(4, node_budget=0), "node budget must be positive"),
    (lambda: SearchConfig(4, worker_count=0), "worker count must be positive"),
    (lambda: SublatticeSpec(1, 1, 0, 0), "lattice modulus must be positive, got 0"),
    (lambda: NumericParameters((), 0), "default parameter value must be nonzero"),
    (lambda: NumericParameters((((0, 6), 0),), 1), "parameter at (0, 6) must be nonzero"),
    (lambda: PqrsParams(1, 2, 4, 3), "p must be an integer greater than 1"),
    (lambda: PqrsParams(3, 2, 4, 1), "s must be an integer greater than 1"),
    (lambda: PqrsParams(3, 2, 4, 4), "ps - qr must equal 1, got 4"),
    (lambda: RenderOptions(3), "cell size must be at least 4, got 3"),
    (lambda: RuleBased(Z, (ZERO, ONE, ZERO)), "rule table must have exactly 4 entries"),
    (lambda: RuleBased(Z, (ZERO, ONE, ZERO, POLYNOMIALS.value(-1))), "rule table entry outside the model ring"),
    (lambda: RuleBased(Z, (ZERO, ONE, ZERO, -1)), "rule table entry outside the model ring"),
    (lambda: PeriodicBlock(ModularRing(6), WINDOW.matrix), "block entries outside the model ring"),
    (lambda: Patched(Z, UNIT_RULE, WILDEST, FormalParameters()), "formal parameters need the polynomial ring"),
    (lambda: Patched(POLYNOMIALS, UNIT_RULE, WILDEST, NumericParameters((), 1)),
     "numeric parameters need the integer ring"),
    (lambda: Patched(Z, UNIT_RULE, WILDEST, NumericParameters((((0, 0), 2),), 1)),
     "parameter position (0, 0) is off the sublattice"),
    (lambda: Patched(POLYNOMIALS, UNIT_RULE, WILDEST, FormalParameters()),
     "background ring differs from the model ring"),
    (lambda: Patched(Z, UNIT_RULE, SublatticeSpec(3, 1, 10, 7), NumericParameters((), 1)),
     "background is nonzero at lattice position (0, 7)"),
]


@pytest.mark.parametrize("build, message", REFUSALS)
def test_constructor_refusals(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


def test_normalization():
    lat = SublatticeSpec(-7, 23, 10, -4)
    assert (lat.u, lat.v, lat.m, lat.t) == (3, 3, 10, 6)
    assert lat == SublatticeSpec(3, 3, 10, 6)
    assert ModularRing(6).value(-1).payload == 5
    params = NumericParameters.from_mapping({(1, 5): -5, (-1, 3): 5}, 1)
    assert params.values == (((-1, 3), 5), ((1, 5), -5))
    assert (params.value_at(1, 5), params.value_at(0, 0)) == (-5, 1)
