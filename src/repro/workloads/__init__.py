"""Benchmark programs and update cases (paper Figures 8, 9, 16)."""

from .programs import (
    AES,
    AES_EXPECTED_CIPHERTEXT,
    BLINK,
    CNT_TO_LEDS,
    CNT_TO_LEDS_AND_RFM,
    CNT_TO_RFM,
    PROGRAMS,
)
from .updates import CASES, DATA_CASE_IDS, RA_CASE_IDS, UpdateCase

__all__ = [
    "AES",
    "AES_EXPECTED_CIPHERTEXT",
    "BLINK",
    "CASES",
    "CNT_TO_LEDS",
    "CNT_TO_LEDS_AND_RFM",
    "CNT_TO_RFM",
    "DATA_CASE_IDS",
    "PROGRAMS",
    "RA_CASE_IDS",
    "UpdateCase",
]
