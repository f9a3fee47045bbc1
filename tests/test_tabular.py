import numpy as np
import pytest

from tcol.tabular import (
    CsvParseError,
    Dataset,
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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FeatureSchema("x", "ordinal", "mutable", (0, 1))

    def test_categorical_needs_domain(self):
        with pytest.raises(ValueError, match="domain"):
            FeatureSchema("x", "categorical", "mutable", ())


class TestLoadCsv:
    def test_clean_file_loads_all_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "job,income,loan\nservice,100,yes\ntech,200,no\nservice,300,yes\n",
        )
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert len(ds) == 3
        assert ds.dropped_rows == 0

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

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path, "id,job,income,loan\n1,service,100,yes\n2,tech,200,no\n"
        )
        ds = load_csv(path, SCHEMA, "loan", "yes")
        assert ds.rows[0] == ("service", 100.0)


class TestDataset:
    def test_target_must_be_binary(self):
        with pytest.raises(ValueError, match="two labels"):
            Dataset(SCHEMA, (("service", 1.0),), ("yes",), "loan", "yes")

    def test_target_class_must_exist(self):
        rows = (("service", 1.0), ("tech", 2.0))
        with pytest.raises(ValueError, match="target_class"):
            Dataset(SCHEMA, rows, ("yes", "no"), "loan", "maybe")

    def test_row_width_checked(self):
        with pytest.raises(SchemaViolationError):
            Dataset(SCHEMA, (("service",), ("tech",)), ("yes", "no"), "loan", "yes")


def two_value_dataset():
    rows = tuple(("A", 10.0) for _ in range(3)) + tuple(("B", 20.0) for _ in range(3))
    target = ("yes",) * 3 + ("no",) * 3
    schema = (
        FeatureSchema("grade", "categorical", "mutable", ("A", "B")),
        FeatureSchema("amount", "numeric", "mutable", (0, 100)),
    )
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

    def test_encoder_json_round_trip(self, tmp_path, synthetic, synthetic_encoder):
        from tcol.tabular import Encoder

        path = tmp_path / "enc.json"
        synthetic_encoder.to_json(path)
        loaded = Encoder.from_json(path)
        for row in synthetic.rows[:20]:
            assert np.array_equal(loaded.encode(row), synthetic_encoder.encode(row))
            assert loaded.decode(loaded.encode(row)) == synthetic_encoder.decode(
                synthetic_encoder.encode(row)
            )


def test_encode_dataset_shapes(synthetic, synthetic_encoder):
    encoded = encode_dataset(synthetic_encoder, synthetic)
    assert encoded.X.shape == (len(synthetic), len(synthetic.schema))
    assert encoded.target_mask().sum() == sum(t == "approved" for t in synthetic.target)
    assert list(encoded.immutable_mask()) == [f.immutable for f in synthetic.schema]


def test_load_schema_round_trip(tmp_path):
    from tcol.tabular import dump_schema

    path = tmp_path / "schema.json"
    dump_schema(SCHEMA, path)
    assert load_schema(path) == SCHEMA


def test_load_schema_requires_fields(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('[{"name": "x", "kind": "numeric"}]', encoding="utf-8")
    with pytest.raises(SchemaViolationError, match="missing"):
        load_schema(path)


def test_bundled_public_schemas_parse():
    from tcol.data import PUBLIC_SCHEMAS, public_schema

    for name in PUBLIC_SCHEMAS:
        schema = public_schema(name)
        assert len(schema) >= 5
        assert any(f.kind == "numeric" for f in schema)
