"""Named mutants: each fault below must fail the victims named with it.

A check that cannot fail checks nothing.  A row of ``MUTANTS`` names a
library function, a snippet of its source (it must occur exactly once),
the snippet's replacement and its victims: tests, as ``"module::test"``
(``"module::test[value]"`` for one value of a parametrized test), and
sets of report item ids, run in a bound-4 report.  The function is
rebuilt twice, unchanged and then with the replacement, and each build
is put in place of the original at every module-level name bound to it,
in wpchow and in the test modules.  The unchanged build must pass every
victim; the mutant must fail every victim with an assertion.  Every
``functools`` cache is cleared before each build and after the test.  A
mutant that needs a whole module, such as a module constant, cannot be
rebuilt one function at a time and is not registered.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from functools import partial
from importlib import import_module

import pytest

import wpchow
from wpchow import blowup, build_report, cli, curves, graded, intlinalg, report, wps

MUTANTS = {  # id: (function, snippet, replacement, victims)
    # Integer linear algebra (intlinalg.py).
    "snf-chain-step-skipped": (
        intlinalg.smith_normal_form,
        "if b % a:", "if False:",
        [
            "test_intlinalg::test_snf_2x3_diag_case",
            "test_intlinalg::test_snf_random_vs_minor_oracle",
        ],
    ),
    "snf-v-left-out": (
        intlinalg.smith_normal_form,
        "_mix(vt, i, j, 1, 1, -t * b // g, s * a // g)", "pass",
        ["test_intlinalg::test_snf_2x3_diag_case"],
    ),
    "snf-u-sign-flipped": (
        intlinalg.smith_normal_form,
        "_mix(u, i, j, s, t, -b // g, a // g)", "_mix(u, i, j, s, t, b // g, a // g)",
        ["test_intlinalg::test_snf_2x3_diag_case"],
    ),
    "int-for-index-in-sparse": (
        intlinalg._sparse,
        "index(row[j])", "int(row[j])",
        ["test_intlinalg::test_non_integer_entries_are_refused"],
    ),
    "int-for-index-in-solve": (
        intlinalg.solve_integer,
        "[index(value) for value in target]", "[int(value) for value in target]",
        ["test_intlinalg::test_non_integer_entries_are_refused"],
    ),
    "two-is-a-unit": (
        intlinalg._eliminate_unit_pivots,
        "if value == 1 or value == -1:", "if value in (1, -1, 2, -2):",
        ["test_intlinalg::test_an_entry_of_two_beside_a_unit_is_not_a_pivot"],
    ),
    "fill-in-not-registered": (
        intlinalg._eliminate_unit_pivots,
        "holders[j].add(k)", "pass",
        ["test_intlinalg::test_fill_in_is_cleared_by_a_later_pivot"],
    ),
    "no-requeue": (
        intlinalg._eliminate_unit_pivots,
        "work.append(k)", "pass",
        ["test_intlinalg::test_a_unit_exposed_in_a_visited_row_is_eliminated"],
    ),
    "dedupe-by-support": (
        intlinalg._blocks,
        "frozenset(row.items())", "frozenset(row)",
        ["test_intlinalg::test_duplicate_and_zero_rows_leave_the_factors_unchanged"],
    ),
    "one-row-block-least-entry": (
        intlinalg._sparse_invariant_factors,
        "gcd(*block[0].values())", "min(map(abs, block[0].values()))",
        ["test_intlinalg::test_duplicate_and_zero_rows_leave_the_factors_unchanged"],
    ),
    "always-rediagonalize": (
        intlinalg._sparse_invariant_factors,
        "_pattern_diagonal(_pattern(block))", "_diagonal(block)",
        [
            "test_intlinalg::test_translated_blocks_share_one_diagonal",
            "test_intlinalg::test_a_block_with_relabelled_columns_is_a_cache_hit",
        ],
    ),
    "pivot-2-split-as-one": (
        intlinalg._diagonal,
        "if row[min(row)] == 1:", "if row[min(row)] in (1, 2):",
        [
            "test_intlinalg::test_a_pivot_of_one_splits_off_after_its_hermite_pass",
            "test_intlinalg::test_blocks_whose_hermite_pass_leaves_pivots_of_one_against_minor_gcds",
        ],
    ),
    "pivot-2-split-keeping-2": (
        intlinalg._diagonal,
        "ones += 1",
        "ones += 1\n                elif row[min(row)] == 2:\n                    rest.append({min(row): 2})",
        ["test_intlinalg::test_blocks_whose_hermite_pass_leaves_pivots_of_one_against_minor_gcds"],
    ),
    "unit-rows-uncounted": (
        intlinalg._diagonal,
        "ones += 1", "pass",
        [
            "test_intlinalg::test_a_pivot_of_one_splits_off_after_its_hermite_pass",
            "test_intlinalg::test_blocks_whose_hermite_pass_leaves_pivots_of_one_against_minor_gcds",
        ],
    ),
    "no-split": (
        intlinalg._diagonal,
        "if row[min(row)] == 1:", "if False:",
        [
            "test_intlinalg::test_a_pivot_of_one_splits_off_after_its_hermite_pass",
            "test_intlinalg::test_the_sheared_degree_6_block_splits_its_unit_pivots",
            "test_graded::test_the_sheared_degree_6_piece_takes_three_hermite_passes",
        ],
    ),

    # Graded pieces and ring checks (graded.py).
    "basis-uncached": (
        graded._basis,
        "@lru_cache(maxsize=128)", "@lru_cache(maxsize=0)",
        ["test_graded::test_renamed_pieces_enumerate_their_basis_once"],
    ),
    "one-generator-piece-z12-as-z6": (
        graded.graded_piece,
        "AbelianGroupShape.cyclic(order)", "AbelianGroupShape.cyclic(6 if order == 12 else order)",
        [{"two-point-complement", "m12-open-ring"}],
    ),
    "one-generator-piece-z24-as-z12": (
        graded.graded_piece,
        "AbelianGroupShape.cyclic(order)", "AbelianGroupShape.cyclic(12 if order == 24 else order)",
        [{"cusp-complement"}],
    ),
    "one-generator-last-relation-only": (
        graded.graded_piece,
        "terms in relations if", "terms in relations[-1:] if",
        [{"m12-open-ring", "m12-open-degree-1"}, "test_graded::test_the_piece_rules_match_the_lattice"],
    ),
    "xy-stable-from-D": (
        graded.graded_piece,
        "1 + max(", "max(",
        [{"m12bar-pieces"}, "test_graded::test_the_piece_rules_match_the_lattice"],
    ),
    "xy-rule-without-product": (
        graded.graded_piece,
        " and any(terms in _UNIT_PRODUCTS for _, terms in relations)", "",
        ["test_graded::test_two_generator_rings_without_a_unit_product_take_the_lattice"],
    ),
    "same-ideal-one-way": (
        graded.same_ideal,
        " and hom_check(second, first, identity)", "",
        ["test_graded::test_same_ideal_needs_no_degree_bound"],
    ),

    # Chow rings and classes (wps.py).
    "chow-ring-sum-of-weights": (
        wps.chow_ring,
        "prod(stack.weights)", "sum(stack.weights)",
        [{"chow-ring-234", "chow-pieces-234", "chow-ring-46", "chow-pieces-46"}],
    ),
    "point-class-own-weight": (
        wps.point_class,
        "if i != index", "if i == index",
        [{"point-class-46-mu4", "point-class-46-mu6", "point-class-234-mu2", "m12-open-inputs"}],
    ),
    "line-class-degree-plus-1": (
        wps.line_image_class,
        "len(remaining) + len(used) - 1", "len(remaining) + len(used)",
        [{"cusp-class", "cusp-complement"}],
    ),

    # The marked Weierstrass pipeline (curves.py).
    "coordinate-weights-doubled": (
        curves.coordinate_grading,
        '{"a2": 2, "a3": 3, "a4": 4}', '{"a2": 4, "a3": 6, "a4": 8}',
        [{"disc-weighted-degree", "pic-complement-disc"}],
    ),
    "alpha-map-a2sq-over-4": (
        curves._alpha_map,
        "Fraction(1, 3) * a2**2", "Fraction(1, 4) * a2**2",
        [{"weierstrass-identity"}, "test_curves::test_to_short_form_examples"],
    ),
    "coefficient-map-plus-alpha2-alpha4": (
        curves._coefficient_map,
        "- alpha2 * alpha4", "+ alpha2 * alpha4",
        [{"weierstrass-identity"}],
    ),
    "coefficient-map-plus-alpha2-cubed": (
        curves._coefficient_map,
        "- alpha2**3", "+ alpha2**3",
        [{"coefficient-map-indeterminacy", "weierstrass-identity"}],
    ),
    "discriminant-26-for-27": (
        curves._discriminant,
        "27 * beta6**2", "26 * beta6**2",
        [{"nodal-point-disc"}],
    ),
    "j-3-for-4": (
        curves.j_invariant,
        "Fraction(1728) * 4", "Fraction(1728) * 3",
        [{"j-special-values"}],
    ),
    "fiber-plus-beta4-x": (
        curves.fiber_curve,
        "- short.beta4 * x", "+ short.beta4 * x",
        [{"nodal-fiber"}],
    ),
    "iso-a4-unchecked": (
        curves.iso_test,
        "if candidate**weight != ratio:", "if weight != 4 and candidate**weight != ratio:",
        [
            "test_curves::test_iso_test_requires_rational_root",
            "test_curves::test_iso_test_recovers_random_scalings_and_rejects_a_moved_a4",
        ],
    ),
    "zero-residue-skipped": (
        curves._rootless_modulo_a_small_prime,
        "range(p)", "range(1, p)",
        ["test_curves::test_sieve_keeps_cubics_whose_roots_are_all_even"],
    ),
    "primitive-model-sieved": (
        curves._rootless_modulo_a_small_prime,
        "x * x * x + b * x + c", "c3 * x * x * x + c1 * x + c0",
        ["test_curves::test_sieve_keeps_cubics_with_constructed_rational_roots"],
    ),
    "any-in-place-of-all": (
        curves._rootless_modulo_a_small_prime,
        "all(", "any(",
        ["test_curves::test_sieve_keeps_cubics_whose_roots_are_all_even"],
    ),
    "root-cofactors-dropped": (
        curves._first_cubic_root,
        "small + [n // d for d in reversed(small) if d * d != n]", "small",
        ["test_curves::test_mu2_fixed_points_match_the_divisor_search_oracle"],
    ),
    "fixed-point-multiplicity-1": (
        curves.mu2_fixed_points,
        "multiplicity=roots.count(x)", "multiplicity=1",
        ["test_curves::test_mu2_fixed_points_examples", {"nodal-fixed-points"}],
    ),
    "fixed-points-ascending": (
        curves.mu2_fixed_points,
        "sorted(set(roots), reverse=True)", "sorted(set(roots))",
        ["test_curves::test_mu2_fixed_points_examples", {"nodal-fixed-points"}],
    ),
    "third-root-sign": (
        curves.mu2_fixed_points,
        "(-s - root) / 2", "(-s + root) / 2",
        ["test_curves::test_mu2_fixed_points_examples"],
    ),

    # The blow-up and the moduli rings (blowup.py).
    "grading-1-1-minus-2": (
        blowup.invariant_ring_check,
        "((w1, w2, -1), degree_bound)", "((1, 1, -2), degree_bound)",
        [{"invariant-ring"}],
    ),
    "grading-2-3-1": (
        blowup.invariant_ring_check,
        "((w1, w2, -1), degree_bound)", "((2, 3, 1), degree_bound)",
        [{"invariant-ring"}],
    ),
    "exceptional-square-plus-t": (
        blowup.exceptional_selfintersection,
        '-Poly.variable("t")', 'Poly.variable("t")',
        [{"exceptional-square", "phi-y2"}],
    ),
    "phi-x2-pushes-to-0": (
        blowup.phi_degree2_images,
        '"x^2": (t_e, t2_u)', '"x^2": (zero_e, t2_u)',
        [{"phi-x2"}],
    ),
    "phi-xy-pushes-to-t": (
        blowup.phi_degree2_images,
        '"x*y": (zero_e, zero_u)', '"x*y": (t_e, zero_u)',
        [{"phi-xy"}],
    ),
    "xy-requirement-skipped": (
        blowup.check_split_assembly,
        'if not is_zero(GradedElement.of(presentation, "x*y")):', "if False:",
        ["test_blowup::test_check_split_assembly_requires_xy_in_the_ideal"],
    ),
    "compare-only-up-to-degree-2": (
        blowup.check_split_assembly,
        "split_pieces(top + 1)", "split_pieces(2)",
        ["test_blowup::test_check_split_assembly_compares_past_degree_2"],
    ),
    "m12bar-23-for-24": (
        blowup.m12bar_chow,
        "{torsion}*y^2", "{torsion - 1}*y^2",
        [{"m12bar-ring", "m12bar-assembly", "m12bar-pieces", "phi-kills-relations",
          "restriction-hom", "restriction-hom-mutant"}],
    ),
    "open-curve-class-24t": (
        blowup.m12_open_chow,
        "GradedElement.of(u_ring, degree * t, 1)", "GradedElement.of(u_ring, 2 * degree * t, 1)",
        [{"m12-open-ring", "m12-open-degree-1", "restriction-hom"}],
    ),
    # The command line's direct reader (cli.py).
    "reader-skips-choices": (
        cli._read,
        'if "choices" in keywords and value not in keywords["choices"]:', "if False:",
        ["test_report_cli::test_the_direct_reader_reads_as_argparse_or_declines"],
    ),
    "reader-joins-positional-runs": (
        cli._read,
        "if run_closed:", "if False:",
        ["test_report_cli::test_the_direct_reader_reads_as_argparse_or_declines"],
    ),
    "reader-takes-a-repeated-option": (
        cli._read,
        "if token not in options or token in given:", "if token not in options:",
        ["test_report_cli::test_the_direct_reader_reads_as_argparse_or_declines"],
    ),
    # Its range checks and its error messages (cli.py).
    "bound-cap-off-by-one": (
        cli._out_of_range,
        "args.bound > MAX_DEGREE", "args.bound > MAX_DEGREE + 1",
        ["test_report_cli::test_cli_degree_flags_are_capped[verify-paper-bound]"],
    ),
    "digit-limit-text-shown": (
        cli.main,
        'message.startswith("Exceeds the limit (")', "False",
        [*(f"test_report_cli::test_cli_results_too_long_to_print_are_refused_briefly[{name}]"
           for name in ("chow", "blowup", "curve-normalize", "curve-normalize-beta", "curve-j",
                        "curve-disc")),
         "test_report_cli::test_cli_pic_complement_numbers_too_long_to_print_are_an_error[coefficient]",
         "test_report_cli::test_cli_pic_complement_numbers_too_long_to_print_are_an_error[exponent]",
         "test_report_cli::test_cli_case[too-long-to-print-degree]"],
    ),
}

# Report items that no row names as a victim.  A new item goes here until a
# row names it; a row that names one takes it out.
UNGUARDED: set[str] = set()


def _test(victim: str):
    """The test a victim names, given its value if it names one."""
    module, _, name = victim.partition("::")
    name, _, value = name.partition("[")
    test = getattr(import_module(module), name)
    return partial(test, value[:-1]) if value else test


# Bind every name the package exports lazily, and import every victim,
# before any build is in place: a name bound while one is would keep it.
for _name in wpchow.__all__:
    getattr(wpchow, _name)
_TESTS = {
    victim: _test(victim)
    for *_, victims in MUTANTS.values()
    for victim in victims
    if isinstance(victim, str)
}


def _modules(test_modules: bool = False) -> list:
    """wpchow's modules, and the test modules too (they import names directly)."""
    return [
        module
        for module in list(sys.modules.values())
        if (name := getattr(module, "__name__", "")).partition(".")[0] == "wpchow"
        or (test_modules and name.rpartition(".")[2].startswith("test_"))
    ]


def _clear_caches():
    for module in _modules():
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture(autouse=True)
def clear_caches():
    yield
    _clear_caches()


def rebuilt(function, snippet: str, replacement: str):
    """``function`` rebuilt from its source with ``snippet`` replaced.  It reads
    its module's globals when it runs, so a victim's monkeypatch reaches it."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(snippet) == 1, f"{snippet!r} must occur once in {function.__name__}"
    built: dict = {}
    exec(source.replace(snippet, replacement), vars(sys.modules[function.__module__]), built)
    return built[function.__name__]


def _passes(test) -> bool:
    """Whether a test passes; an error other than a failed assertion is no kill."""
    try:
        if "monkeypatch" in inspect.signature(test).parameters:
            with pytest.MonkeyPatch.context() as patch:
                test(patch)
        else:
            test()
    except (AssertionError, pytest.fail.Exception):
        return False
    return True


def _outcomes(victims) -> dict[str, bool]:
    """Whether each victim passes: each test, and each item of a set."""
    outcomes = {}
    for victim in victims:
        if isinstance(victim, str):
            outcomes[victim] = _passes(_TESTS[victim])
        else:
            statuses = {item.id: item.status for item in build_report(bound=4).items}
            outcomes.update((item, statuses[item] == "pass") for item in sorted(victim))
    return outcomes


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_items(monkeypatch, name):
    function, snippet, replacement, victims = MUTANTS[name]
    bindings = [(m, a) for m in _modules(True) for a, v in vars(m).items() if v is function]
    for text, must_pass in ((snippet, True), (replacement, False)):
        _clear_caches()
        build = rebuilt(function, snippet, text)
        for module, attr in bindings:
            monkeypatch.setattr(module, attr, build)
        outcomes = _outcomes(victims)
        wrong = [victim for victim, passed in outcomes.items() if passed != must_pass]
        assert not wrong, f"{name}: {'unchanged build fails' if must_pass else 'survives'} {wrong}"


def test_alpha_map_mutant_stops_to_short_form(monkeypatch):
    # to_short_form checks the identity on the formulas it evaluates.
    function, snippet, replacement, _ = MUTANTS["alpha-map-a2sq-over-4"]
    monkeypatch.setattr(curves, "_alpha_map", rebuilt(function, snippet, replacement))
    with pytest.raises(AssertionError, match="substitution identity"):
        curves.to_short_form(wpchow.MarkedCurveCoeffs(3, 2, 0))


def test_every_report_item_is_named_by_a_mutant_or_unguarded():
    named = {
        item for *_, victims in MUTANTS.values() for v in victims if isinstance(v, set) for item in v
    }
    assert named.isdisjoint(UNGUARDED)
    assert {entry.id for entry in report._IDENTITIES} == named | UNGUARDED


def test_only_the_split_decomposition_computes_an_expected_value(monkeypatch):
    # An expected value computed by the code it checks hides a fault that
    # hits both sides alike.  Every expected value is recorded, except the
    # split decomposition over P(4,6) and U, which reads other rings than
    # the one m12bar-assembly checks.  Every piece, read off by rule or
    # eliminated, comes from graded_piece, wherever it is bound.
    calls = []
    original = graded.graded_piece

    def counting(presentation, degree):
        calls.append(presentation)
        return original(presentation, degree)

    for module in _modules():
        if vars(module).get("graded_piece") is original:
            monkeypatch.setattr(module, "graded_piece", counting)
    values = report.SharedValues(8)
    computing = set()
    for entry in report._IDENTITIES:
        calls.clear()
        if not isinstance(entry.expected, str):
            entry.expected(values)
        if calls:
            computing.add(entry.id)
    assert computing == {"m12bar-assembly"}
