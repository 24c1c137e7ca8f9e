"""The immutable records: construction, defaults, equality, hashing, printing and
refused writes, for every record kind the library defines.

The printed forms were recorded from the frozen dataclasses the records replace."""

import pytest

from rotakit.conditions import (
    IndirectVerdict,
    IndirectWitness,
    MaskinVerdict,
    OrderingWitness,
    PropertyMFailure,
    PropertyMVerdict,
    RotationCertificate,
    RotationObstruction,
    RotationVerdict,
)
from rotakit.constructors import DiagnosticSets, ImplementationReport, ProfileVerdict
from rotakit.domains.housing import Economy
from rotakit.domains.jobs import JobRotationProblem
from rotakit.domains.marriage import Matching, MarriageProblem, StabilityVerdict
from rotakit.model import (
    DomainRestrictionVerdict,
    EfficiencyVerdict,
    InputError,
    Preference,
    Profile,
    SocialChoiceRule,
)
from rotakit.rights import (
    Edge,
    ImprovementPath,
    PathStep,
    RightsStructure,
    SocialEnvironment,
    State,
)
from rotakit.solvers import PartitionResult, RotationProgramVerdict, SolutionReport

ALTS = ("x", "y")


def _profile():
    return Profile("R", (Preference(ALTS, (3, 5)), Preference(ALTS, [1, 0])))


def _structure():
    return RightsStructure((State("x", "x"), State("y", "y")), {("x", "y"): {frozenset([1])}})


# one builder per record kind, with the record's printed form; every frozenset printed
# holds ints or at most one string, so that its print order is the same in every process
RECORDS = [
    (lambda: Preference(ALTS, (3, 5)),
     "Preference(alternatives=('x', 'y'), ranks=(0, 1))"),
    (_profile,
     "Profile(id='R', prefs=(Preference(alternatives=('x', 'y'), ranks=(0, 1)), "
     "Preference(alternatives=('x', 'y'), ranks=(1, 0))))"),
    (lambda: SocialChoiceRule([_profile()], {"R": ["x"]}),
     "SocialChoiceRule(profiles=(Profile(id='R', prefs=(Preference(alternatives=('x', 'y'), "
     "ranks=(0, 1)), Preference(alternatives=('x', 'y'), ranks=(1, 0)))),), "
     "choices={'R': frozenset({'x'})})"),
    (lambda: DomainRestrictionVerdict(False, ("x", "y")),
     "DomainRestrictionVerdict(ok=False, pair=('x', 'y'))"),
    (lambda: EfficiencyVerdict(False, "R", "y", "x"),
     "EfficiencyVerdict(ok=False, profile_id='R', outcome='y', dominator='x')"),
    (lambda: SolutionReport("mss", (("x",),), (("x",),), {"paths": []}),
     "SolutionReport(concept='mss', sets=(('x',),), outcomes=(('x',),), witness={'paths': []})"),
    (lambda: RotationProgramVerdict(False, "ii", "x has no successor"),
     "RotationProgramVerdict(ok=False, clause='ii', detail='x has no successor')"),
    (lambda: PartitionResult(True, (("x", "y"),)),
     "PartitionResult(ok=True, blocks=(('x', 'y'),), witness_state=None, reason=None)"),
    (lambda: DiagnosticSets("R", ("x",), (), {"R": ("y",)}, ("y",)),
     "DiagnosticSets(profile_id='R', m_states=('x',), u_states=(), q_by_profile={'R': ('y',)}, "
     "q_states=('y',))"),
    (lambda: ProfileVerdict("R", False, frozenset({"x"}), frozenset({"y"})),
     "ProfileVerdict(profile_id='R', ok=False, expected=frozenset({'x'}), "
     "actual=frozenset({'y'}))"),
    (lambda: ImplementationReport(
        "mss", True, (ProfileVerdict("R", True, frozenset(), frozenset()),)
    ),
     "ImplementationReport(kind='mss', ok=True, per_profile=(ProfileVerdict(profile_id='R', "
     "ok=True, expected=frozenset(), actual=frozenset()),), partitions=None)"),
    (lambda: SocialEnvironment(_structure(), _profile()),
     "SocialEnvironment(rights=RightsStructure((State(key='x', outcome='x', kind='base', "
     "profile_id=None), State(key='y', outcome='y', kind='base', profile_id=None)), "
     "{('x', 'y'): [[1]]}, {}), profile=Profile(id='R', "
     "prefs=(Preference(alternatives=('x', 'y'), ranks=(0, 1)), "
     "Preference(alternatives=('x', 'y'), ranks=(1, 0)))))"),
    (lambda: Edge("x", "y", frozenset({0, 1})),
     "Edge(source='x', target='y', coalition=frozenset({0, 1}))"),
    (lambda: PathStep(frozenset({1}), "y"),
     "PathStep(coalition=frozenset({1}), state='y')"),
    (lambda: ImprovementPath("x", (PathStep(frozenset({1}), "y"),)),
     "ImprovementPath(start='x', steps=(PathStep(coalition=frozenset({1}), state='y'),))"),
    (lambda: MaskinVerdict(False, ("R", "Rp", "x")),
     "MaskinVerdict(ok=False, counterexample=('R', 'Rp', 'x'))"),
    (lambda: IndirectWitness("R", "Rp", "x", ("x", "y"), (1,), 0),
     "IndirectWitness(profile_id='R', other_id='Rp', outcome='x', path=('x', 'y'), "
     "step_agents=(1,), reversal_agent=0)"),
    (lambda: IndirectVerdict(True, (IndirectWitness("R", "Rp", "x", ("x",), (), 1),)),
     "IndirectVerdict(ok=True, witnesses=(IndirectWitness(profile_id='R', other_id='Rp', "
     "outcome='x', path=('x',), step_agents=(), reversal_agent=1),), failing=None)"),
    (lambda: RotationCertificate("x", (("y", 1),), "y", 0, "x"),
     "RotationCertificate(start='x', chain=(('y', 1),), reversal_outcome='y', reversal_agent=0, "
     "reversal_alt='x')"),
    (lambda: OrderingWitness({"R": ["x", "y"]}),
     "OrderingWitness(orderings={'R': ('x', 'y')})"),
    (lambda: RotationObstruction("R", ((("x", "y"), "Rp", "y"),)),
     "RotationObstruction(profile_id='R', failures=((('x', 'y'), 'Rp', 'y'),))"),
    (lambda: RotationVerdict(False, obstructions=(RotationObstruction("R", ()),)),
     "RotationVerdict(ok=False, witness=None, obstructions=(RotationObstruction(profile_id='R', "
     "failures=()),))"),
    (lambda: PropertyMFailure("R", "Rp", "x", "no chain to the singleton"),
     "PropertyMFailure(profile_id='R', other_id='Rp', outcome='x', "
     "reason='no chain to the singleton')"),
    (lambda: PropertyMVerdict(False, PropertyMFailure("R", "Rp", "x", "why")),
     "PropertyMVerdict(ok=False, failure=PropertyMFailure(profile_id='R', other_id='Rp', "
     "outcome='x', reason='why'))"),
    (lambda: JobRotationProblem("P", ["j1", "j2"], [["j1", "j2"], ["j2", "j1"]]),
     "JobRotationProblem(id='P', jobs=('j1', 'j2'), orders=(('j1', 'j2'), ('j2', 'j1')))"),
    (lambda: Economy("E", 2, ["h1", "h2"], "o", {"h1": [0], "h2": [0, 1]},
                     [["h1", "h2", "o"], ["h2", "o", "h1"]]),
     "Economy(id='E', n_agents=2, houses=('h1', 'h2'), outside='o', "
     "owners={'h1': frozenset({0}), 'h2': frozenset({0, 1})}, "
     "orders=(('h1', 'h2', 'o'), ('h2', 'o', 'h1')))"),
    (lambda: MarriageProblem("M", ["m"], ["w"], {"m": ["w", "m"]}, {"w": ["m", "w"]}),
     "MarriageProblem(id='M', men=('m',), women=('w',), men_prefs={'m': ('w', 'm')}, "
     "women_prefs={'w': ('m', 'w')}, pure=False)"),
    (lambda: Matching([("w", "m"), ("m", "w")]),
     "Matching(pairing=(('m', 'w'), ('w', 'm')))"),
    (lambda: StabilityVerdict(False, ir_violator="m"),
     "StabilityVerdict(ok=False, blocking_pair=None, ir_violator='m')"),
]

NAMES = [type(make()).__name__ for make, _ in RECORDS]


def _values(record) -> tuple:
    """The record's field tuple: the names its class body annotates, in order."""
    return tuple(getattr(record, name) for name in type(record).__annotations__)


def test_every_record_kind_is_covered():
    assert len(set(NAMES)) == len(NAMES) == 29


@pytest.mark.parametrize("make, printed", RECORDS, ids=NAMES)
def test_a_record_prints_as_the_dataclass_it_replaces(make, printed):
    assert repr(make()) == printed


@pytest.mark.parametrize("make", [make for make, _ in RECORDS], ids=NAMES)
def test_a_record_equals_its_rebuilt_copy_and_hashes_as_its_field_tuple(make):
    record, again = make(), make()
    assert record == again and not record != again
    assert record != _values(record)
    try:
        expected = hash(_values(record))
    except TypeError:  # a dict field: neither the record nor its fields hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) == expected


@pytest.mark.parametrize("make", [make for make, _ in RECORDS], ids=NAMES)
def test_a_record_refuses_writes_to_every_field(make):
    record = make()
    for name, value in zip(type(record).__annotations__, _values(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_records_of_different_classes_differ_though_their_fields_are_equal():
    assert MaskinVerdict(True) != PropertyMVerdict(True)
    assert _values(MaskinVerdict(True)) == _values(PropertyMVerdict(True))
    assert RotationProgramVerdict(True) != StabilityVerdict(True)
    assert PathStep(frozenset({1}), "y") != PathStep(frozenset({0}), "y")
    assert EfficiencyVerdict(False, "R", "y", "x") != EfficiencyVerdict(False, "R", "y", "z")


def test_defaults_fill_the_fields_not_given():
    assert RotationVerdict(True) == RotationVerdict(True, None, ())
    assert StabilityVerdict(False, ir_violator="m") == StabilityVerdict(False, None, "m")
    assert MarriageProblem("M", ["m"], ["w"], {"m": ["w", "m"]}, {"w": ["m", "w"]}).pure is False
    one, two = SolutionReport("core", (), ()), SolutionReport("core", (), ())
    assert one.witness == two.witness == {} and one.witness is not two.witness
    assert not MaskinVerdict(False) and MaskinVerdict(True)


@pytest.mark.parametrize("args, kwargs", [
    (("R", "Rp", "x", "why", "extra"), {}),  # one value too many
    (("R", "Rp", "x"), {}),  # a field missing
    (("R", "Rp", "x"), {"reason": "why", "note": "?"}),  # not a field
    (("R", "Rp", "x", "why"), {"reason": "why"}),  # a field given twice
])
def test_a_record_is_built_from_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        PropertyMFailure(*args, **kwargs)
    assert PropertyMFailure("R", "Rp", reason="why", outcome="x") == PropertyMFailure(
        "R", "Rp", "x", "why"
    )


@pytest.mark.parametrize("alternatives, ranks, message, where", [
    (("x", "x"), (0, 1), "duplicate alternative ids", ("alternatives",)),
    (("x", "y"), (0,), "rank vector has 1 entries for 2 alternatives", ("ranks",)),
])
def test_a_preference_refuses_a_repeated_alternative_or_a_short_rank_vector(
    alternatives, ranks, message, where
):
    with pytest.raises(InputError) as got:
        Preference(alternatives, ranks)
    assert (str(got.value), got.value.where) == (message, where)


def test_fields_set_by_a_check_are_kept_out_of_equality_hash_and_print():
    preference = Preference(ALTS, (3, 5))
    assert preference.rank("y") == 1 and "_index" not in repr(preference)
    matching = Matching([("m", "w"), ("w", "m")])
    assert matching.partner("m") == "w" and "_map" not in repr(matching)


def test_a_profile_caches_its_contour_masks():
    profile = _profile()
    masks = profile.contour_masks
    assert vars(profile)["contour_masks"] is masks and profile.contour_masks is masks
    assert profile == _profile() and hash(profile) == hash(_profile())
