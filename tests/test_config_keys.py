"""The JSON keys of a config are the fields of its records, renamed by config.RENAMED;
these tests keep that table and the records from drifting apart."""

from cslbounds import default_config
from cslbounds.config import RENAMED, RunConfig
from cslbounds.records import Record


def config_records(record=None):
    """The default config's records: the RunConfig and every record nested in it."""
    record = default_config() if record is None else record
    yield record
    for name in record._fields:
        value = getattr(record, name)
        if isinstance(value, Record):
            yield from config_records(value)


def test_every_renamed_field_is_a_config_field():
    fields = {name for record in config_records() for name in record._fields}
    assert set(RENAMED) <= fields, set(RENAMED) - fields


def test_no_two_fields_of_a_record_share_a_key():
    for record in config_records():
        keys = [RENAMED.get(name, name) for name in record._fields]
        assert len(keys) == len(set(keys)), f"{type(record).__name__}: {keys}"


def test_every_field_of_a_config_record_is_a_record_or_declares_its_domain():
    # the parser reads a record as a nested object and any other field through its declared domain
    for record in config_records():
        for name in record._fields:
            nested = isinstance(getattr(record, name), Record)
            assert nested != (name in record._checks), f"{type(record).__name__}.{name}"


def test_the_model_is_the_last_field_of_a_run():
    # the reader builds a record's fields in declaration order, and a model that floats cannot hold fails as
    # it is built; declared last, it fails only once every other key and change set has been read
    assert RunConfig._fields[-1] == "model"
