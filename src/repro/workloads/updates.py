"""The code-update test cases (paper Figures 9 and 16).

Thirteen register-allocation cases spanning small / medium / large
changes plus the two data-layout cases D1/D2, reconstructed from the
descriptions in the paper:

* small — constant changes, variable changes, parameter changes,
  instruction changes, control-flow changes (cases 1-5);
* medium — new globals used in new branches, extended live ranges (the
  Figure 4 scenario), new parameters, new functions, new else branches
  (cases 6-11, including the two Figure 9 quotes: *"insert a global
  variable and use it in a new if/then branch in TOSH_run_next_task"*
  and *"add an else branch for an if statement in Timer_HandleFire"*);
* large — application replacement (cases 12: CntToRfm →
  CntToLedsAndRfm, 13: CntToLeds → CntToRfm);
* D1 — insert several global variables into CntToRfm;
* D2 — shuffle the order of global variables and rename them in
  CntToLeds.

Each case is a source-to-source edit applied with
:func:`_edit`, which raises if the anchor text is missing — the cases
cannot silently rot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .programs import (
    AES,
    BLINK,
    CNT_TO_LEDS,
    CNT_TO_LEDS_AND_RFM,
    CNT_TO_RFM,
)


@dataclass(frozen=True)
class UpdateCase:
    """One code-update scenario."""

    case_id: str
    level: str  # "small" | "medium" | "large" | "data"
    program: str  # benchmark name of the old version
    description: str
    old_source: str
    new_source: str


def _edit(source: str, *replacements: tuple[str, str]) -> str:
    """Apply exact-match replacements; refuse silent no-ops."""
    out = source
    for old, new in replacements:
        if old not in out:
            raise ValueError(f"update-case anchor not found: {old!r}")
        out = out.replace(old, new, 1)
    return out


def _build_cases() -> list[UpdateCase]:
    cases: list[UpdateCase] = []

    # -- small changes (local to a basic block) --------------------------------

    cases.append(
        UpdateCase(
            case_id="1",
            level="small",
            program="CntToLeds",
            description="change the colour of blink: display a different LED subset",
            old_source=CNT_TO_LEDS,
            new_source=_edit(CNT_TO_LEDS, ("u8 display_mask = 7;", "u8 display_mask = 5;")),
        )
    )
    cases.append(
        UpdateCase(
            case_id="2",
            level="small",
            program="Blink",
            description="constant change: toggle the yellow LED instead of the red",
            old_source=BLINK,
            new_source=_edit(BLINK, ("led_state ^ 1", "led_state ^ 2")),
        )
    )
    cases.append(
        UpdateCase(
            case_id="3",
            level="small",
            program="CntToRfm",
            description="instruction change: send cnt+1 instead of cnt",
            old_source=CNT_TO_RFM,
            new_source=_edit(CNT_TO_RFM, ("send_int_msg(cnt);", "send_int_msg(cnt + 1);")),
        )
    )
    cases.append(
        UpdateCase(
            case_id="4",
            level="small",
            program="CntToLeds",
            description="variable change: advance the counter by a stride global",
            old_source=_edit(
                CNT_TO_LEDS, ("u8 display_mask = 7;", "u8 display_mask = 7;\nu8 stride = 1;")
            ),
            new_source=_edit(
                CNT_TO_LEDS,
                ("u8 display_mask = 7;", "u8 display_mask = 7;\nu8 stride = 1;"),
                ("cnt = cnt + 1;", "cnt = cnt + stride;"),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="5",
            level="small",
            program="Blink",
            description="parameter change: mask the value passed to led_set",
            old_source=BLINK,
            new_source=_edit(BLINK, ("led_set(led_state);", "led_set(led_state & 3);")),
        )
    )

    # -- medium changes (larger function / cross-function, structure kept) ------

    cases.append(
        UpdateCase(
            case_id="6",
            level="medium",
            program="Blink",
            description=(
                "insert a global variable and use it in a new if/then "
                "branch in tosh_run_next_task (paper Fig. 9 medium case)"
            ),
            old_source=BLINK,
            new_source=_edit(
                BLINK,
                ("u8 led_state = 0;", "u8 led_state = 0;\nu16 fire_count = 0;"),
                (
                    "    if (timer_fired()) {\n        timer_handle_fire();\n    }",
                    "    if (timer_fired()) {\n        fire_count = fire_count + 1;\n"
                    "        if (fire_count > 10) {\n            led_set(7);\n        }\n"
                    "        timer_handle_fire();\n    }",
                ),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="7",
            level="medium",
            program="CntToLeds",
            description=(
                "extend a live range across an inserted use "
                "(the paper's Figure 4 motivation)"
            ),
            old_source=_edit(
                CNT_TO_LEDS,
                (
                    "void timer_handle_fire() {\n    cnt = cnt + 1;\n    led_set(cnt & display_mask);\n}",
                    "void timer_handle_fire() {\n    u8 shown = cnt & display_mask;\n"
                    "    cnt = cnt + 1;\n    led_set(shown);\n}",
                ),
            ),
            new_source=_edit(
                CNT_TO_LEDS,
                (
                    "void timer_handle_fire() {\n    cnt = cnt + 1;\n    led_set(cnt & display_mask);\n}",
                    "void timer_handle_fire() {\n    u8 shown = cnt & display_mask;\n"
                    "    u8 bumped = shown + 1;\n    cnt = cnt + 1;\n"
                    "    led_set(shown);\n    led_set(bumped & display_mask);\n}",
                ),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="8",
            level="medium",
            program="CntToRfm",
            description="add a parameter: am_send_header takes a length byte",
            old_source=CNT_TO_RFM,
            new_source=_edit(
                CNT_TO_RFM,
                (
                    "void am_send_header(u8 kind, u8 seq) {\n    radio_send(kind);\n    radio_send(seq);\n}",
                    "void am_send_header(u8 kind, u8 seq, u8 length) {\n    radio_send(kind);\n"
                    "    radio_send(seq);\n    radio_send(length);\n}",
                ),
                ("am_send_header(am_type, msg_seq);", "am_send_header(am_type, msg_seq, 2);"),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="9",
            level="medium",
            program="CntToLedsAndRfm",
            description="add a new helper function called from the event handler",
            old_source=CNT_TO_LEDS_AND_RFM,
            new_source=_edit(
                CNT_TO_LEDS_AND_RFM,
                (
                    "void timer_handle_fire() {",
                    "u8 saturate(u16 value) {\n    if (value > 250) {\n        return 250;\n    }\n"
                    "    return value;\n}\n\nvoid timer_handle_fire() {",
                ),
                ("show_on_leds(cnt);", "show_on_leds(saturate(cnt));"),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="10",
            level="medium",
            program="AES",
            description="count encrypted blocks in a new global (key schedule kept)",
            old_source=AES,
            new_source=_edit(
                AES,
                ("u8 round_keys[176];", "u8 round_keys[176];\nu16 blocks_done = 0;"),
                (
                    "    sub_bytes();\n    shift_rows();\n    add_round_key(10);",
                    "    sub_bytes();\n    shift_rows();\n    add_round_key(10);\n"
                    "    blocks_done = blocks_done + 1;",
                ),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="11",
            level="medium",
            program="Blink",
            description=(
                "add an else branch for an if statement in "
                "timer_handle_fire (paper Fig. 9 case 11)"
            ),
            old_source=_edit(
                BLINK,
                (
                    "void timer_handle_fire() {\n    led_state = led_state ^ 1;  // red LED is bit 0\n    led_set(led_state);\n}",
                    "void timer_handle_fire() {\n    if (led_state == 0) {\n        led_state = 1;\n    }\n"
                    "    led_set(led_state);\n    led_state = led_state ^ 1;\n}",
                ),
            ),
            new_source=_edit(
                BLINK,
                (
                    "void timer_handle_fire() {\n    led_state = led_state ^ 1;  // red LED is bit 0\n    led_set(led_state);\n}",
                    "void timer_handle_fire() {\n    if (led_state == 0) {\n        led_state = 1;\n    } else {\n"
                    "        led_state = led_state << 1;\n    }\n"
                    "    led_set(led_state);\n    led_state = led_state ^ 1;\n}",
                ),
            ),
        )
    )

    # -- large changes (application replacement) -------------------------------------

    cases.append(
        UpdateCase(
            case_id="12",
            level="large",
            program="CntToRfm",
            description="change the application from CntToRfm to CntToLedsAndRfm",
            old_source=CNT_TO_RFM,
            new_source=CNT_TO_LEDS_AND_RFM,
        )
    )
    cases.append(
        UpdateCase(
            case_id="13",
            level="large",
            program="CntToLeds",
            description="change the application from CntToLeds to CntToRfm",
            old_source=CNT_TO_LEDS,
            new_source=CNT_TO_RFM,
        )
    )

    # -- data-layout cases (paper Figure 16) ----------------------------------------------

    cases.append(
        UpdateCase(
            case_id="D1",
            level="data",
            program="CntToRfm",
            description="insert several global variables into CntToRfm",
            old_source=CNT_TO_RFM,
            new_source=_edit(
                CNT_TO_RFM,
                (
                    "u16 cnt = 0;",
                    "u16 cnt = 0;\nu16 boot_count = 0;\nu8 tx_power = 10;\nu8 group_id = 1;",
                ),
                (
                    "void send_int_msg(u16 value) {\n    am_send_header(am_type, msg_seq);",
                    "void send_int_msg(u16 value) {\n    boot_count = boot_count + 0;\n"
                    "    am_send_header(am_type, msg_seq ^ group_id ^ tx_power);",
                ),
            ),
        )
    )
    cases.append(
        UpdateCase(
            case_id="D2",
            level="data",
            program="CntToLeds",
            description="shuffle the order of global variables and change their names",
            old_source=_edit(
                CNT_TO_LEDS,
                ("u16 cnt = 0;\nu8 display_mask = 7;", "u16 cnt = 0;\nu8 display_mask = 7;\nu8 blink_rate = 4;"),
            ),
            new_source=_edit(
                CNT_TO_LEDS,
                (
                    "u16 cnt = 0;\nu8 display_mask = 7;",
                    "u8 led_mask = 7;\nu8 rate_hz = 4;\nu16 tick_count = 0;",
                ),
                ("cnt = cnt + 1;", "tick_count = tick_count + 1;"),
                ("led_set(cnt & display_mask);", "led_set(tick_count & led_mask);"),
                ("    cnt = 0;\n", "    tick_count = 0;\n"),
            ),
        )
    )
    return cases


#: All cases keyed by id ("1".."13", "D1", "D2").
CASES: dict[str, UpdateCase] = {case.case_id: case for case in _build_cases()}

#: The register-allocation evaluation cases of Figure 10/11 (1-12).
RA_CASE_IDS = [str(i) for i in range(1, 13)]

#: The data-layout cases of Figure 16.
DATA_CASE_IDS = ["D1", "D2"]
