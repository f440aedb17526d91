"""
Mining closed patterns from many solutions
==========================================

Given one property set per script, a pattern is any set of properties,
and its support is the number of scripts containing all of them. We only
keep closed patterns - ones that cannot be grown without losing support -
because every non-closed pattern is just a shadow of a closed one.
"""

from blockmine import build_project, extract_property_sets, mine_closed_patterns

walk = [
    "event_whenflagclicked",
    ("control_forever", [
        {
            "opcode": "control_if",
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": ["motion_movesteps"],
        },
    ]),
]
jump = [
    "event_whenflagclicked",
    ("control_forever", [
        {
            "opcode": "control_if",
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": ["motion_gotoxy"],
        },
    ]),
]

# A tiny classroom: 4 students walked, 2 jumped.
projects = [build_project(f"walker_{i}", [("Cat", [walk])]) for i in range(4)]
projects += [build_project(f"jumper_{i}", [("Cat", [jump])]) for i in range(2)]

transactions = extract_property_sets(projects)
print("scripts analyzed:", len(transactions))
print("properties per script:", sorted(len(t.properties) for t in transactions))

# With support >= 1 we see three closed patterns: the walkers' full
# fingerprint, the jumpers' full fingerprint, and their shared skeleton.
for min_support in (1, 2, 4, 5):
    patterns = mine_closed_patterns(transactions, min_support=min_support)
    print(f"\nmin_support={min_support}: {len(patterns)} closed patterns")
    for p in patterns:
        names = sorted(prop.display for prop in p.properties)
        supporters = sorted(s.project_id for s in p.supporters)
        print(f"  support={p.support} size={p.size} supporters={supporters}")
        for name in names:
            print(f"    {name}")

# Note how raising min_support never invents a new pattern; it only
# filters the family down. At 5 only the 6-script skeleton survives; at
# 6 it would be the single pattern every script satisfies.
