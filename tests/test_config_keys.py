"""The JSON keys of a config are the fields of its records, renamed by config.RENAMED;
these tests keep that table and the records from drifting apart."""

from cslbounds import ModelKind, default_config
from cslbounds.config import RENAMED
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


def test_a_field_without_a_declared_domain_has_a_reader():
    # the parser reads such a field as a nested object, a flag or a model kind
    for record in config_records():
        for name in record._fields:
            if name not in record._checks:
                assert isinstance(getattr(record, name), (Record, bool, ModelKind)), f"{type(record).__name__}.{name}"
