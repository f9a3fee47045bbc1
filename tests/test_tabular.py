import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numeric_schema
from tcol.tabular import (
    CsvParseError,
    Dataset,
    EncodedDataset,
    Encoder,
    FeatureSchema,
    SchemaViolationError,
    encode_dataset,
    fit_encoder,
    load_csv,
    load_schema,
)

SCHEMA = (
    FeatureSchema("job", "categorical", "mutable", ("service", "tech")),
    FeatureSchema("income", "numeric", "mutable", (0, 100000)),
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestFeatureSchema:
    def test_numeric_domain_must_be_ordered(self):
        with pytest.raises(ValueError, match="min > max"):
            FeatureSchema("x", "numeric", "mutable", (5, 1))

    @pytest.mark.parametrize(
        "domain", [("young", "old"), (0, None), (0, float("nan")), (False, True), (0, 10**400)]
    )
    def test_numeric_domain_bounds_must_be_finite_numbers(self, domain):
        with pytest.raises(SchemaViolationError, match="'x'"):
            FeatureSchema("x", "numeric", "mutable", domain)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FeatureSchema("x", "ordinal", "mutable", (0, 1))

    def test_categorical_needs_domain(self):
        with pytest.raises(ValueError, match="domain"):
            FeatureSchema("x", "categorical", "mutable", ())

    @pytest.mark.parametrize("kind, domain", [("categorical", "ab"), ("numeric", "01"), ("categorical", {"a": 1})])
    def test_domain_must_be_a_list(self, kind, domain):
        with pytest.raises(SchemaViolationError, match="domain of 'x' is not a list"):
            FeatureSchema("x", kind, "mutable", domain)

    @pytest.mark.parametrize("category", [["a", "b"], {"a": 1}])
    def test_a_category_must_be_a_single_value(self, category):
        with pytest.raises(SchemaViolationError, match="a category of 'x' is a list or an object"):
            FeatureSchema("x", "categorical", "mutable", ("c", category))

    def test_name_must_be_a_string(self):
        with pytest.raises(SchemaViolationError, match="feature name"):
            FeatureSchema(["x"], "numeric", "mutable", (0, 1))


class TestLoadCsv:
    def test_clean_file_loads_all_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "job,income,loan\nservice,100,yes\ntech,200,no\nservice,300,yes\n",
        )
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert len(ds) == 3
        assert ds.dropped_rows == 0

    def test_blank_lines_are_skipped_not_dropped(self, tmp_path):
        path = write_csv(tmp_path, "job,income,loan\nservice,100,yes\n\ntech,200,no\n\n")
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert (len(ds), ds.dropped_rows) == (2, 0)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="line 1: empty file"):
            load_csv(write_csv(tmp_path, ""), SCHEMA, "loan", "yes")

    def test_rows_with_nulls_are_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path,
            "job,income,loan\n"
            "service,100,yes\n"
            ",200,no\n"
            "tech,300,yes\n"
            "tech,,no\n"
            "service,500,no\n",
        )
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert len(ds) == 3
        assert ds.dropped_rows == 2
        assert len(ds) + ds.dropped_rows == 5

    def test_unknown_category_names_feature_and_value(self, tmp_path):
        path = write_csv(tmp_path, "job,income,loan\npilot,100,yes\ntech,1,no\n")
        with pytest.raises(SchemaViolationError) as err:
            load_csv(path, SCHEMA, "loan", "yes")
        assert "pilot" in str(err.value) and "job" in str(err.value)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "job,income,loan\nservice,100,yes\ntech,200\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path, SCHEMA, "loan", "yes")
        assert err.value.line == 3

    def test_non_numeric_value_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "job,income,loan\nservice,lots,yes\ntech,2,no\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path, SCHEMA, "loan", "yes")
        assert err.value.line == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e9"])
    def test_non_finite_or_out_of_domain_numeric_rejected(self, tmp_path, cell):
        path = write_csv(tmp_path, f"job,income,loan\nservice,100,yes\ntech,{cell},no\n")
        with pytest.raises(SchemaViolationError) as err:
            load_csv(path, SCHEMA, "loan", "yes")
        assert "income" in str(err.value) and repr(float(cell)) in str(err.value)

    def test_missing_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "job,loan\nservice,yes\n")
        with pytest.raises(SchemaViolationError, match="income"):
            load_csv(path, SCHEMA, "loan", "yes")

    @pytest.mark.parametrize(
        "text, column",
        [
            ("job,income,income,loan\nservice,100,200,yes\n", "column 'income'"),
            ("job,income,loan,loan\nservice,100,yes,no\n", "target column 'loan'"),
        ],
    )
    def test_column_named_twice_rejected(self, tmp_path, text, column):
        path = write_csv(tmp_path, text)
        with pytest.raises(SchemaViolationError, match=f"{column} named 2 times in CSV header"):
            load_csv(path, SCHEMA, "loan", "yes")

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path, "id,job,income,loan\n1,service,100,yes\n2,tech,200,no\n"
        )
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert ds.rows[0] == ("service", 100.0)


class TestDataset:
    def test_schema_needs_a_feature(self):
        with pytest.raises(SchemaViolationError, match="schema has no features"):
            Dataset((), ((), ()), ("yes", "no"), "loan", "yes")

    def test_target_must_be_binary(self):
        with pytest.raises(ValueError, match="two labels"):
            Dataset(SCHEMA, (("service", 1.0),), ("yes",), "loan", "yes")

    def test_target_class_must_exist(self):
        rows = (("service", 1.0), ("tech", 2.0))
        with pytest.raises(ValueError, match="target_class"):
            Dataset(SCHEMA, rows, ("yes", "no"), "loan", "maybe")

    def test_rows_and_target_must_have_one_length(self):
        with pytest.raises(SchemaViolationError, match="rows and target column differ in length"):
            Dataset(SCHEMA, (("service", 1.0), ("tech", 2.0)), ("yes", "no", "yes"), "loan", "yes")

    def test_row_width_checked(self):
        with pytest.raises(SchemaViolationError):
            Dataset(SCHEMA, (("service",), ("tech",)), ("yes", "no"), "loan", "yes")

    def test_duplicate_feature_names_rejected(self, tmp_path):
        schema = SCHEMA + (FeatureSchema("income", "numeric", "mutable", (0, 10)),)
        rows = (("service", 1.0, 2.0), ("tech", 2.0, 3.0))
        with pytest.raises(SchemaViolationError, match="duplicate feature name 'income'"):
            Dataset(schema, rows, ("yes", "no"), "loan", "yes")
        path = write_csv(tmp_path, "job,income,loan\nservice,1,yes\ntech,2,no\n")
        with pytest.raises(SchemaViolationError, match="duplicate feature name 'income'"):
            load_csv(path, schema, "loan", "yes")

    def test_feature_named_like_the_target_rejected(self, tmp_path):
        schema = SCHEMA + (FeatureSchema("loan", "categorical", "mutable", ("yes", "no")),)
        rows = (("service", 1.0, "yes"), ("tech", 2.0, "no"))
        with pytest.raises(SchemaViolationError, match="feature 'loan' has the target column's name"):
            Dataset(schema, rows, ("yes", "no"), "loan", "yes")
        path = write_csv(tmp_path, "job,income,loan\nservice,1,yes\ntech,2,no\n")
        with pytest.raises(SchemaViolationError, match="feature 'loan' has the target column's name"):
            load_csv(path, schema, "loan", "yes")


def two_value_dataset():
    rows = tuple(("A", 10.0) for _ in range(3)) + tuple(("B", 20.0) for _ in range(3))
    target = ("yes",) * 3 + ("no",) * 3
    schema = (
        FeatureSchema("grade", "categorical", "mutable", ("A", "B")),
        FeatureSchema("amount", "numeric", "mutable", (0, 100)),
    )
    return Dataset(schema, rows, target, "loan", "yes")


def red_blue_dataset(blue_yes=2):
    """12 rows: red 2 of 4 approved, blue ``blue_yes`` of 4, green 4 of 4."""
    colors = ("red",) * 4 + ("blue",) * 4 + ("green",) * 4
    target = ("yes", "no") * 2 + ("yes",) * blue_yes + ("no",) * (4 - blue_yes) + ("yes",) * 4
    schema = (
        FeatureSchema("size", "numeric", "mutable", (0, 20)),
        FeatureSchema("color", "categorical", "mutable", ("red", "blue", "green")),
    )
    rows = tuple((float(i + 1), c) for i, c in enumerate(colors))
    return Dataset(schema, rows, target, "loan", "yes")


class TestEncoder:
    def test_category_rates_are_target_means(self):
        enc = fit_encoder(two_value_dataset())
        assert enc.category_rates[0] == {"A": 1.0, "B": 0.0}

    def test_numeric_midpoint_encodes_to_half(self):
        enc = fit_encoder(two_value_dataset())
        # amount spans [10, 20]; 15 is the midpoint of the affine map
        assert enc.encode(("A", 15.0))[1] == pytest.approx(0.5)

    def test_constant_feature_encodes_to_half(self):
        rows = tuple(("A", 7.0) for _ in range(2)) + tuple(("B", 7.0) for _ in range(2))
        ds = Dataset(
            (
                FeatureSchema("grade", "categorical", "mutable", ("A", "B")),
                FeatureSchema("amount", "numeric", "mutable", (0, 100)),
            ),
            rows,
            ("yes", "yes", "no", "no"),
            "loan",
            "yes",
        )
        enc = fit_encoder(ds)
        assert all(enc.encode(r)[1] == 0.5 for r in ds.rows)
        # and any component decodes back to the one value the feature took
        grade = enc.encode(("A", 7.0))[0]
        assert all(enc.decode([grade, c]) == ("A", 7.0) for c in (0.0, 0.5, 1.0))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "abc", None, pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_numeric_cell_in_a_built_dataset_rejected(self, bad):
        # Dataset checks only structure; load_csv is not on this path
        schema = (FeatureSchema("amount", "numeric", "mutable", (0, 10)),)
        ds = Dataset(schema, ((bad,), (1.0,), (20.0,)), ("yes", "no", "yes"), "loan", "yes")
        message = f"value {bad!r} of numeric feature 'amount' is not a finite number"
        with pytest.raises(SchemaViolationError, match=message):
            fit_encoder(ds)

    def test_first_bad_cell_in_column_order_is_reported(self):
        enc = fit_encoder(two_value_dataset())
        rows = [("A", 10.0), ("A", "x"), ("C", 10.0)]
        with pytest.raises(SchemaViolationError, match="unseen category 'C' for feature 'grade'"):
            enc.encode_rows(rows)
        with pytest.raises(ValueError, match="row has 1 values, schema has 2"):
            enc.encode_rows(rows + [("A",)])

    @pytest.mark.parametrize(
        "vector, message",
        [
            ([1.0], "vector length does not match schema"),
            ([1.0, 0.5, 0.5], "vector length does not match schema"),
            ([0.5, 0.5], "component 0.5 of feature 'grade' matches no fitted category"),
        ],
    )
    def test_decode_rejects_a_vector_it_cannot_invert(self, vector, message):
        with pytest.raises(ValueError, match=message):
            fit_encoder(two_value_dataset()).decode(vector)

    def test_encoder_without_reverse_maps_is_refused_when_built(self):
        # built without them, its first categorical decode would fail instead
        enc = fit_encoder(two_value_dataset())
        with pytest.raises(TypeError, match="reverse_maps"):
            Encoder(enc.schema, enc.category_rates, enc.mins, enc.maxs)

    def test_no_rows_encode_to_an_empty_matrix(self):
        assert fit_encoder(two_value_dataset()).encode_rows([]).shape == (0, 2)

    def test_out_of_range_numeric_clamps(self):
        enc = fit_encoder(two_value_dataset())
        assert enc.encode(("A", 5.0))[1] == 0.0
        assert enc.encode(("A", 25.0))[1] == 1.0

    def test_unseen_category_raises(self):
        ds = two_value_dataset()
        schema = (FeatureSchema("grade", "categorical", "mutable", ("A", "B", "C")),) + ds.schema[1:]
        ds2 = Dataset(schema, ds.rows, ds.target, "loan", "yes")
        enc = fit_encoder(ds2)
        with pytest.raises(SchemaViolationError, match="C"):
            enc.encode(("C", 10.0))

    def test_target_rate_collision_rejected(self):
        # red and blue both have rate 0.5 and would decode to one category
        with pytest.raises(SchemaViolationError, match="'red' and 'blue' of feature 'color'"):
            fit_encoder(red_blue_dataset())
        enc = fit_encoder(red_blue_dataset(blue_yes=1))
        assert enc.decode(enc.encode((1.0, "blue")))[1] == "blue"

    def test_components_stay_in_unit_interval(self, synthetic, synthetic_encoder):
        for row in synthetic.rows:
            v = synthetic_encoder.encode(row)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_round_trip_on_every_bundled_row(self, synthetic, synthetic_encoder):
        for row in synthetic.rows:
            decoded = synthetic_encoder.decode(synthetic_encoder.encode(row))
            for got, want, feat in zip(decoded, row, synthetic.schema):
                if feat.kind == "categorical":
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-9

    def test_fit_is_order_independent(self, synthetic):
        rng = np.random.default_rng(3)
        order = rng.permutation(len(synthetic))
        shuffled = Dataset(
            synthetic.schema,
            tuple(synthetic.rows[i] for i in order),
            tuple(synthetic.target[i] for i in order),
            synthetic.target_name,
            synthetic.target_class,
        )
        a, b = fit_encoder(synthetic), fit_encoder(shuffled)
        assert a.category_rates == b.category_rates
        assert a.mins == b.mins and a.maxs == b.maxs


@st.composite
def round_trip_datasets(draw):
    """A categorical feature of k categories with distinct target rates
    (category j: j + 1 rows, one approved) and a numeric feature of finite
    values, two-decimal ones among them."""
    k = draw(st.integers(2, 5))
    grades = [f"g{j}" for j in range(k) for _ in range(j + 1)]
    target = [label for j in range(k) for label in ["yes"] + ["no"] * j]
    value = st.one_of(
        st.integers(-10**7, 10**7).map(lambda cents: cents / 100),
        st.floats(-1e6, 1e6, allow_subnormal=False),
    )
    amounts = draw(st.lists(value, min_size=len(grades), max_size=len(grades)))
    schema = (
        FeatureSchema("grade", "categorical", "mutable", tuple(f"g{j}" for j in range(k))),
        FeatureSchema("amount", "numeric", "mutable", (-1e6, 1e6)),
    )
    return Dataset(schema, tuple(zip(grades, amounts)), tuple(target), "loan", "yes")


@settings(max_examples=200, deadline=None)
@given(data=round_trip_datasets())
def test_decode_is_exact_for_categories_and_within_rounding_for_numerics(data):
    """A numeric x decodes to ((x - lo) / (hi - lo)) * (hi - lo) + lo: four
    roundings of at most half an ulp each, which stay within
    2 eps (hi - lo) + eps |lo| / 2; the bound doubles that."""
    enc = fit_encoder(data)
    lo, hi = enc.mins[1], enc.maxs[1]
    bound = 4 * np.finfo(float).eps * ((hi - lo) + abs(lo))
    for row, vector in zip(data.rows, enc.encode_rows(data.rows)):
        grade, amount = enc.decode(vector)
        assert grade == row[0]
        assert abs(amount - row[1]) <= bound


def test_encode_dataset_shapes(synthetic, synthetic_encoder):
    encoded = encode_dataset(synthetic_encoder, synthetic)
    assert encoded.X.shape == (len(synthetic), len(synthetic.schema))
    assert encoded.target_mask().sum() == sum(t == "approved" for t in synthetic.target)
    assert list(encoded.immutable_mask()) == [f.immutable for f in synthetic.schema]


@pytest.mark.parametrize(
    "X, n_labels, message",
    [
        (np.zeros(3), 3, "X and y shapes do not match"),
        (np.zeros((3, 2)), 2, "X and y shapes do not match"),
        (np.zeros((3, 3)), 3, "X width does not match schema length"),
    ],
)
def test_encoded_dataset_checks_its_shapes(X, n_labels, message):
    with pytest.raises(ValueError, match=message):
        EncodedDataset(X, np.array(["yes"] * n_labels, dtype=object), "yes", numeric_schema(2))


def test_target_centroid_needs_a_target_row():
    data = EncodedDataset(np.zeros((2, 2)), np.array(["no", "no"], dtype=object), "yes", numeric_schema(2))
    with pytest.raises(ValueError, match="no target-class rows to average"):
        data.target_centroid


def test_load_schema_round_trip(tmp_path):
    payload = [
        {"name": f.name, "kind": f.kind, "mutability": f.mutability, "domain": list(f.domain)}
        for f in SCHEMA
    ]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert load_schema(path) == SCHEMA


def test_load_schema_requires_fields(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('[{"name": "x", "kind": "numeric"}]', encoding="utf-8")
    with pytest.raises(SchemaViolationError, match="missing"):
        load_schema(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "non-empty JSON list"),
        ('{"name": "x"}', "a schema file must be a JSON list, got {'name': 'x'}"),
        ('["x"]', "each schema entry must be a JSON object, got 'x'"),
        ('[{"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0, 1]}, 7]',
         "each schema entry must be a JSON object, got 7"),
        ('[{"name": "x", "kind": "categorical", "mutability": "mutable", "domain": "ab"}]',
         "domain of 'x' must be a JSON list, got 'ab'"),
        ('[{"name": "x", "kind": "numeric", "mutability": "mutable", "domain": {"a": 1}}]',
         "domain of 'x' must be a JSON list, got {'a': 1}"),
        ('[{"name": "x", "kind": "categorical", "mutability": "mutable", "domain": [["a"], "b"]}]',
         r"a category of 'x' must be a JSON string, got \['a'\]"),
        ('[{"name": "x", "kind": "categorical", "mutability": "mutable", "domain": ["a", 2]}]',
         "a category of 'x' must be a JSON string, got 2"),
        ('[{"name": "x", "kind": "numeric", "mutability": "frozen", "domain": [0, 1]}]', "unknown mutability 'frozen'"),
        ('[{"name": "x", "kind": "categorical", "mutability": "mutable", "domain": ["a", "b", "a"]}]',
         "duplicate categories in domain of 'x'"),
        ('[{"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0, 1, 2]}]', r"needs a \(min, max\) domain"),
        ('[{"name": "x", "kind": "numeric", "mutability": "mutable", "domain": [0]}]', r"needs a \(min, max\) domain"),
    ],
)
def test_load_schema_rejects_a_malformed_schema(tmp_path, text, message):
    path = tmp_path / "schema.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaViolationError, match=message):
        load_schema(path)


def test_unknown_bundled_file_rejected():
    from tcol.data import bundled_path

    with pytest.raises(FileNotFoundError, match="no bundled file named 'missing.csv'"):
        bundled_path("missing.csv")


def test_bundled_public_schemas_parse():
    from tcol.data import bundled_path

    paths = sorted(bundled_path("public").iterdir())
    names = {path.name.removesuffix(".schema.json") for path in paths}
    assert names >= {"adult_income", "german_credit", "titanic", "water_quality", "phoneme"}
    for path in paths:
        schema = load_schema(path)
        assert len(schema) >= 5
        assert any(f.kind == "numeric" for f in schema)
