"""ACL evaluation, mutation, and serialization."""

import pytest

from repro.core.acl import Acl, AclEntry, AclError
from repro.core.identity import IdentityError
from repro.core.rights import Rights

FRED = "/O=UnivNowhere/CN=Fred"


def paper_acl() -> Acl:
    """The §3 example ACL."""
    return Acl(
        entries=[
            AclEntry(FRED, Rights.parse("rwlxa")),
            AclEntry("/O=UnivNowhere/*", Rights.parse("rl")),
        ]
    )


def test_paper_example_rights():
    acl = paper_acl()
    assert acl.rights_for(FRED).has_all("rwlxa")
    george = "/O=UnivNowhere/CN=George"
    assert acl.rights_for(george).has_all("rl")
    assert not acl.rights_for(george).has("w")


def test_unlisted_identity_gets_nothing():
    acl = paper_acl()
    assert acl.rights_for("/O=Elsewhere/CN=Eve").is_empty
    assert not acl.allows("/O=Elsewhere/CN=Eve", "r")


def test_rights_union_across_matching_entries():
    # Fred matches both his own entry and the wildcard
    acl = Acl(
        entries=[
            AclEntry(FRED, Rights.parse("w")),
            AclEntry("/O=UnivNowhere/*", Rights.parse("rl")),
        ]
    )
    assert acl.rights_for(FRED).has_all("rwl")


def test_allows_requires_every_letter():
    acl = paper_acl()
    assert acl.allows(FRED, "rw")
    assert not acl.allows("/O=UnivNowhere/CN=G", "rw")


def test_set_entry_replaces():
    acl = paper_acl()
    acl.set_entry(FRED, Rights.parse("r"))
    assert str(acl.rights_for(FRED)) == "rl"  # own entry r + wildcard rl
    assert len([e for e in acl if e.subject == FRED]) == 1


def test_set_entry_empty_rights_removes():
    acl = paper_acl()
    acl.set_entry(FRED, Rights.none())
    assert FRED not in acl.subjects()


def test_remove_entry():
    acl = paper_acl()
    acl.remove_entry("/O=UnivNowhere/*")
    assert acl.subjects() == [FRED]


def test_render_parse_roundtrip():
    acl = paper_acl()
    again = Acl.parse(acl.render())
    assert again.subjects() == acl.subjects()
    assert str(again.rights_for(FRED)) == str(acl.rights_for(FRED))


def test_render_format_matches_paper():
    text = paper_acl().render()
    assert "/O=UnivNowhere/CN=Fred rwlxa\n" in text
    assert "/O=UnivNowhere/* rl\n" in text


def test_parse_tolerates_comments_and_blanks():
    acl = Acl.parse("# a comment\n\n/O=X/CN=A rl\n   \n")
    assert acl.subjects() == ["/O=X/CN=A"]


def test_parse_reserve_entries():
    acl = Acl.parse("globus:/O=UnivNowhere/* v(rwlax)\n")
    rights = acl.rights_for("globus:/O=UnivNowhere/CN=Fred")
    assert rights.has("v")
    assert rights.reserve_rights().has_all("rwlax")


@pytest.mark.parametrize(
    "bad",
    ["just-a-subject\n", "subject with too many words rl\n", "/O=X rz\n"],
)
def test_malformed_lines_raise(bad):
    with pytest.raises(AclError):
        Acl.parse(bad)


def test_entry_subject_validation():
    with pytest.raises(AclError):
        AclEntry("has space", Rights.parse("r"))
    with pytest.raises(AclError):
        AclEntry("", Rights.parse("r"))


def test_for_owner():
    acl = Acl.for_owner(FRED)
    assert acl.rights_for(FRED).has_all("rwlxa")
    assert acl.rights_for("someone-else").is_empty


def test_copy_is_independent():
    acl = paper_acl()
    twin = acl.copy()
    twin.set_entry("new-subject", Rights.parse("r"))
    assert "new-subject" not in acl.subjects()


def test_empty_acl_denies_everyone():
    acl = Acl()
    assert acl.rights_for(FRED).is_empty
    assert len(acl) == 0


def test_entry_order_preserved():
    acl = paper_acl()
    assert acl.subjects() == [FRED, "/O=UnivNowhere/*"]


# -- compiled rights (the per-identity memo) ---------------------------- #


def test_compiled_rights_follow_set_entry_and_remove_entry():
    acl = paper_acl()
    george = "/O=UnivNowhere/CN=George"
    assert acl.rights_for(george) == Rights.parse("rl")
    acl.set_entry(george, Rights.parse("w"))
    assert acl.rights_for(george) == Rights.parse("rwl")
    acl.remove_entry("/O=UnivNowhere/*")
    assert acl.rights_for(george) == Rights.parse("w")


def test_copy_does_not_share_compiled_rights():
    acl = paper_acl()
    assert acl.rights_for(FRED) == Rights.parse("rwlxa")
    twin = acl.copy()
    twin.set_entry(FRED, Rights.parse("x"))
    assert twin.rights_for(FRED) == Rights.parse("rlx")  # x plus the wildcard
    assert acl.rights_for(FRED) == Rights.parse("rwlxa")
    acl.remove_entry(FRED)
    assert twin.rights_for(FRED) == Rights.parse("rlx")


def test_compiled_rights_are_invisible_to_equality_and_repr():
    acl = paper_acl()
    acl.rights_for(FRED)
    assert acl == paper_acl()
    assert repr(acl) == repr(paper_acl())


def test_compiled_wildcard_unions_equal_a_fresh_evaluation():
    acl = Acl(
        entries=[
            AclEntry("/O=UnivNowhere/*", Rights.parse("rl")),
            AclEntry("*/CN=Fred", Rights.parse("w")),
            AclEntry("/O=Univ?owhere/CN=*", Rights.parse("x")),
            AclEntry(FRED, Rights.parse("v(rwl)")),
        ]
    )
    identities = [FRED, "/O=UnivNowhere/CN=George", "/O=Elsewhere/CN=Fred", "nobody"]
    for _ in range(2):  # the first pass compiles, the second hits
        for identity in identities:
            expected = Rights.none()
            for entry in acl:
                if entry.matches(identity):
                    expected = expected | entry.rights
            assert acl.rights_for(identity) == expected


def test_an_invalid_identity_raises_on_every_call():
    acl = paper_acl()
    for _ in range(2):
        with pytest.raises(IdentityError):
            acl.rights_for("not an identity")
