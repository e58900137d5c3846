"""Independent checker for hyperqkd reports.

It imports nothing from ``hyperqkd``: the expected values are the paper's
constants, and the report is read as plain JSON or CSV text. Every
statistical check is a band of ``Z`` standard errors, with the standard
error taken from the report itself; checks whose expected value is exact
(no attack: zero mismatches, equal keys) compare exactly.

Expected values:

* 1.5 key bits per coincidence, so 27/4 over the 2/9-bit qubit baseline;
* coincidence rate = efficiency squared;
* no attack: same-basis mismatch rate, key bit error rate and verification
  mismatches exactly 0, ``keys.equal`` true and both digests equal;
* single intercept: same-basis mismatch 0.25 and Eve information 0.5;
* double intercept: mismatch 0.25 when Eve's two bases are equal and 0.5
  when they differ.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

#: Width of every statistical band, in the report's own standard errors.
Z = 5.0

BITS_PER_COINCIDENCE = 1.5
EKERT_RATIO = 27 / 4
SINGLE_MISMATCH = 0.25
SINGLE_EVE_INFORMATION = 0.5
DOUBLE_SAME_BASES_RATE = 0.25
DOUBLE_DIFF_BASES_RATE = 0.5

_HEX64 = re.compile(r"[0-9a-f]{64}\Z")

# JSON path of each flat field; the flat names are the CSV column names.
_JSON_PATHS = {
    "rounds": ("config", "rounds"),
    "seed": ("config", "seed"),
    "efficiency": ("config", "efficiency"),
    "attack": ("config", "attack"),
    "eve_bases": ("config", "eve_bases"),
    "verify_fraction": ("config", "verify_fraction"),
    "coincidences": ("stats", "coincidences"),
    "coincidence_rate": ("stats", "coincidence_rate"),
    "coincidence_rate_se": ("stats", "coincidence_rate_se"),
    "same_basis_count": ("stats", "same_basis_count"),
    "diff_basis_count": ("stats", "diff_basis_count"),
    "discarded_count": ("stats", "discarded_count"),
    "bits_per_coincidence": ("stats", "bits_per_coincidence"),
    "bits_per_coincidence_se": ("stats", "bits_per_coincidence_se"),
    "ekert_ratio": ("stats", "ekert_ratio"),
    "ekert_ratio_se": ("stats", "ekert_ratio_se"),
    "same_basis_mismatch_rate": ("stats", "same_basis_mismatch_rate"),
    "same_basis_mismatch_se": ("stats", "same_basis_mismatch_se"),
    "key_length": ("stats", "key_length"),
    "key_bit_error_rate": ("stats", "key_bit_error_rate"),
    "verify_compared_rounds": ("stats", "verification", "compared_rounds"),
    "verify_mismatches": ("stats", "verification", "mismatches"),
    "eve_information": ("stats", "eve_information"),
    "eve_information_se": ("stats", "eve_information_se"),
    "detection_same_bases_rate": ("stats", "detection", "same_bases_rate"),
    "detection_same_bases_se": ("stats", "detection", "same_bases_se"),
    "detection_diff_bases_rate": ("stats", "detection", "diff_bases_rate"),
    "detection_diff_bases_se": ("stats", "detection", "diff_bases_se"),
    "alice_key_sha256": ("keys", "alice_sha256"),
    "bob_key_sha256": ("keys", "bob_sha256"),
    "keys_equal": ("keys", "equal"),
    "key_length_keys": ("keys", "length"),
    "checks_passed": ("checks_passed",),
}


def _lookup(doc, path):
    for part in path:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(part)
    return doc


def _csv_value(cell: str):
    """An empty cell is null; otherwise a bool, an int, a float or text."""
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse_report(text: str, fmt: str) -> dict:
    """Flatten a JSON or CSV report into one dict keyed by CSV column name."""
    if fmt == "json":
        doc = json.loads(text)
        return {name: _lookup(doc, path) for name, path in _JSON_PATHS.items()}
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise ValueError(f"expected a header and one row, got {len(rows)} rows")
    flat = {name: _csv_value(cell) for name, cell in zip(rows[0], rows[1])}
    # The CSV projection has no separate keys.length column.
    flat["key_length_keys"] = flat.get("key_length")
    return flat


def check_report(flat: dict, expect: dict) -> list[str]:
    """Problems found in one flattened report; an empty list means it passed.

    ``expect`` holds the requested ``rounds``, ``seed``, ``efficiency``,
    ``attack`` ("none", "single" or "double") and ``eve_bases`` (None or
    "random", "same", "different") and, for ``--check`` runs, ``check``.
    """
    problems: list[str] = []

    def band(name, target, se_name, inflation=1.0):
        value, se = flat.get(name), flat.get(se_name)
        if value is None or se is None:
            problems.append(f"{name} or {se_name} is missing")
        elif not abs(value - target) <= Z * inflation * se:
            problems.append(
                f"{name} = {value!r} is outside {target!r} +- {Z * inflation} x {se!r}"
            )

    def exact(name, target):
        if flat.get(name) != target:
            problems.append(f"{name} = {flat.get(name)!r}, expected exactly {target!r}")

    for name in ("rounds", "seed", "efficiency", "attack", "eve_bases"):
        exact(name, expect[name])

    rounds = flat.get("rounds")
    same, diff = flat.get("same_basis_count"), flat.get("diff_basis_count")
    coincidences, discarded = flat.get("coincidences"), flat.get("discarded_count")
    verified, key_length = flat.get("verify_compared_rounds"), flat.get("key_length")
    counts = (rounds, same, diff, coincidences, discarded, verified, key_length)
    if not all(isinstance(c, int) and c >= 0 for c in counts):
        return problems + [f"counts are not all non-negative integers: {counts!r}"]
    if coincidences != same + diff:
        problems.append(f"coincidences {coincidences} != {same} + {diff}")
    if rounds != coincidences + discarded:
        problems.append(f"rounds {rounds} != {coincidences} + {discarded}")
    if key_length != 2 * (same - verified) + diff:
        problems.append(
            f"key_length {key_length} != 2 x ({same} - {verified}) + {diff}"
        )
    exact("key_length_keys", key_length)
    if flat.get("verify_fraction") and same:
        exact("verify_compared_rounds", math.ceil(flat["verify_fraction"] * same))

    band("coincidence_rate", expect["efficiency"] ** 2, "coincidence_rate_se")
    band("bits_per_coincidence", BITS_PER_COINCIDENCE, "bits_per_coincidence_se")
    band("ekert_ratio", EKERT_RATIO, "ekert_ratio_se")

    alice, bob = flat.get("alice_key_sha256"), flat.get("bob_key_sha256")
    if not (isinstance(alice, str) and _HEX64.match(alice)
            and isinstance(bob, str) and _HEX64.match(bob)):
        problems.append(f"key digests are not SHA-256 hex: {alice!r}, {bob!r}")
    if flat.get("keys_equal") is not (alice == bob):
        problems.append(f"keys_equal = {flat.get('keys_equal')!r} disagrees with the digests")

    attack, eve_bases = expect["attack"], expect["eve_bases"]
    if attack == "none":
        exact("same_basis_mismatch_rate", 0.0)
        exact("verify_mismatches", 0)
        exact("keys_equal", True)
        if key_length:
            exact("key_bit_error_rate", 0.0)
    elif attack == "single":
        band("same_basis_mismatch_rate", SINGLE_MISMATCH, "same_basis_mismatch_se")
        # Eve knows both bits of a same-basis round or neither, so the
        # binomial SE over bits understates the spread by up to sqrt(2).
        band("eve_information", SINGLE_EVE_INFORMATION, "eve_information_se",
             math.sqrt(2.0))
    else:
        if eve_bases in ("random", "same"):
            band("detection_same_bases_rate", DOUBLE_SAME_BASES_RATE,
                 "detection_same_bases_se")
        if eve_bases in ("random", "different"):
            band("detection_diff_bases_rate", DOUBLE_DIFF_BASES_RATE,
                 "detection_diff_bases_se")

    if expect.get("check") and not isinstance(flat.get("checks_passed"), bool):
        problems.append("checks_passed is missing from a --check report")
    return problems
