"""Dictionary feedback: "values that uncovered issues in previous tests".

The paper's dictionaries are seeded from the testing literature *and*
from values that exposed problems in earlier campaigns (§III-A, §IV-B).
This module closes that loop mechanically:

- :func:`offending_values` extracts, from a finished campaign, which
  (dictionary, value) pairs participated in failing test cases and how
  often — the raw material for the next campaign's dictionaries;
- :func:`value_effectiveness` scores every dictionary entry by the
  failures it participated in (a param×value attribution);
- :func:`extend_dictionaries` folds offending literal values into a
  dictionary set, so a campaign against kernel N+1 inherits what
  kernel N taught.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.fault.campaign import CampaignResult
from repro.fault.dictionaries import DictionarySet, TestValue, TypeDictionary


@dataclass(frozen=True)
class OffendingValue:
    """One dictionary entry implicated in failures."""

    dictionary: str
    label: str
    failures: int
    tests: int

    @property
    def failure_rate(self) -> float:
        """Failures over appearances."""
        return self.failures / self.tests if self.tests else 0.0


def _param_dictionaries(result: CampaignResult) -> dict[str, list[str]]:
    """function -> per-parameter dictionary names."""
    out: dict[str, list[str]] = {}
    for fn in result.model.tested_functions():
        out[fn.name] = [p.dictionary_key for p in fn.params]
    return out


def value_effectiveness(result: CampaignResult) -> list[OffendingValue]:
    """Score every (dictionary, label) by participation in failures.

    One pass over the classified records tallies, per (dictionary,
    label) pair, the tests it appeared in and the failures among them.
    """
    dict_by_fn = _param_dictionaries(result)
    tests: Counter[tuple[str, str]] = Counter()
    failures: Counter[tuple[str, str]] = Counter()
    for record, _expectation, classification in result.classified:
        param_dicts = dict_by_fn.get(record.function)
        if param_dicts is None:
            continue
        pairs = list(zip(param_dicts, record.arg_labels))
        tests.update(pairs)
        if classification.is_failure:
            failures.update(pairs)
    scored = [
        OffendingValue(
            dictionary=dictionary,
            label=label,
            failures=failures[(dictionary, label)],
            tests=count,
        )
        for (dictionary, label), count in tests.items()
    ]
    scored.sort(key=lambda v: (-v.failure_rate, -v.failures, v.dictionary, v.label))
    return scored


def offending_values(result: CampaignResult) -> list[OffendingValue]:
    """The subset of :func:`value_effectiveness` with at least one failure."""
    return [value for value in value_effectiveness(result) if value.failures]


def extend_dictionaries(
    base: DictionarySet,
    result: CampaignResult,
    source: DictionarySet | None = None,
) -> DictionarySet:
    """Fold a campaign's offending literal values into ``base``.

    Values already present are left alone; symbolic entries cannot be
    transplanted (their meaning is layout-bound) and are skipped.
    Returns a new set; ``base`` is not modified.
    """
    source = source if source is not None else DictionarySet()
    extended: dict[str, TypeDictionary] = dict(base.dictionaries)
    for offending in offending_values(result):
        source_dict = source.dictionaries.get(offending.dictionary)
        if source_dict is None:
            continue
        entry = next(
            (tv for tv in source_dict.values if tv.label == offending.label), None
        )
        if entry is None or entry.is_symbolic:
            continue
        target = extended.get(offending.dictionary)
        if target is None:
            extended[offending.dictionary] = TypeDictionary(
                source_dict.name,
                source_dict.basic_type,
                (entry,),
                source_dict.description,
            )
            continue
        if any(tv.label == entry.label for tv in target.values):
            continue
        extended[offending.dictionary] = TypeDictionary(
            target.name,
            target.basic_type,
            (*target.values, entry),
            target.description,
        )
    return DictionarySet(extended)


def feedback_report(result: CampaignResult, top: int = 10) -> str:
    """Render the most effective dictionary values."""
    scored = value_effectiveness(result)
    lines = ["dictionary           value        failures  tests  rate"]
    lines.append("-" * len(lines[0]))
    for value in scored[:top]:
        lines.append(
            f"{value.dictionary:<20} {value.label:<12} "
            f"{value.failures:>8}  {value.tests:>5}  {value.failure_rate:>5.0%}"
        )
    return "\n".join(lines)


def regression_dictionaries(result: CampaignResult) -> DictionarySet:
    """Dictionaries trimmed to offending values only.

    The minimal regression campaign: re-test a revised kernel with just
    the values that hurt it before (plus one valid entry per dictionary
    to avoid masking).
    """
    offenders: dict[str, set[str]] = {}
    for value in offending_values(result):
        offenders.setdefault(value.dictionary, set()).add(value.label)
    source = DictionarySet()
    trimmed: dict[str, TypeDictionary] = {}
    for name, dictionary in source.dictionaries.items():
        labels = offenders.get(name, set())
        keep = [tv for tv in dictionary.values if tv.label in labels]
        valid = next((tv for tv in dictionary.values if tv.maybe_valid), None)
        if valid is not None and valid not in keep:
            keep.append(valid)
        if not keep:
            keep = [dictionary.values[0]]
        trimmed[name] = TypeDictionary(
            dictionary.name, dictionary.basic_type, tuple(keep), dictionary.description
        )
    return DictionarySet(trimmed)
