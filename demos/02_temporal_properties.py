"""
Temporal properties of a script
===============================

A temporal property "a < b" says: block b can run at some point after
block a. The set of all such pairs is a compact behavioral fingerprint
of a script - two scripts with the same fingerprint order their blocks
the same way, whatever else differs.
"""

from blockmine import (
    build_project,
    build_script_model,
    enumerate_scripts,
    format_properties,
    props,
    sorted_properties,
)

correct = [
    "event_whenflagclicked",
    ("control_forever", [
        {
            "opcode": "control_if",
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": ["motion_movesteps"],
        },
    ]),
]

# The buggy variant jumps to a fixed position instead of moving by steps.
# Same skeleton, different action block.
buggy = [
    "event_whenflagclicked",
    ("control_forever", [
        {
            "opcode": "control_if",
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": ["motion_gotoxy"],
        },
    ]),
]


def fingerprint(name, script):
    project = build_project(name, [("Cat", [script])])
    (ref,) = enumerate_scripts(project)
    return props(build_script_model(ref, project))


good = fingerprint("correct", correct)
bad = fingerprint("buggy", buggy)

print(f"correct script: {len(good.properties)} properties")
print(format_properties(good.properties))

# The move block sits inside a loop, so it can be followed by the if-then
# of the next iteration and by itself - that is why "move steps < move
# steps" is a property.

print(f"\nbuggy script: {len(bad.properties)} properties")
print(format_properties(bad.properties))

# The two scripts share everything that does not mention the action
# block. The difference is exactly where the bug lives.
shared = good.properties & bad.properties
only_good = good.properties - bad.properties

print(f"\nshared core ({len(shared)} properties):")
for p in sorted_properties(shared):
    print(" ", p.display)

print(f"\nonly in the correct script ({len(only_good)} properties):")
for p in sorted_properties(only_good):
    print(" ", p.display)
