"""Access control lists: per-directory subject/rights tables.

An ACL is an ordered list of ``(subject, rights)`` entries stored in a file
named ``.__acl`` inside the directory it governs (§3; the paper prints the
name as ". acl").  Subjects are identity strings, possibly with wildcards::

    /O=UnivNowhere/CN=Fred  rwlax
    /O=UnivNowhere/*        rl

An identity's effective rights are the union over all matching entries —
Fred above holds ``rwlax`` (both lines match him).  The rights of an
identity nobody listed is empty, which is what denies the visiting user
access to the supervising user's files in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .identity import identity_matches, validate_identity
from .rights import Rights, RightsError

#: Name of the per-directory ACL file.
ACL_FILE_NAME = ".__acl"


class AclError(ValueError):
    """An ACL file or entry is malformed."""


@dataclass(frozen=True)
class AclEntry:
    """One line of an ACL: a subject pattern and its rights."""

    subject: str
    rights: Rights

    def __post_init__(self) -> None:
        # Wildcard characters are legal in subjects; whitespace is not.
        if not self.subject or any(c.isspace() for c in self.subject):
            raise AclError(f"bad ACL subject {self.subject!r}")

    def matches(self, identity: str) -> bool:
        return identity_matches(self.subject, identity)

    def render(self) -> str:
        return f"{self.subject} {self.rights}"


@dataclass
class Acl:
    """An ordered collection of ACL entries."""

    entries: list[AclEntry] = field(default_factory=list)
    #: identity -> effective rights, filled by :meth:`rights_for` and
    #: cleared by every mutation; never holds an invalid identity
    _rights: dict[str, Rights] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- evaluation ------------------------------------------------------ #

    def rights_for(self, identity: str) -> Rights:
        """Effective rights of ``identity``: union of matching entries.

        Compiled once per identity: later calls are a dict lookup until
        :meth:`set_entry` or :meth:`remove_entry` changes the entries.
        """
        effective = self._rights.get(identity)
        if effective is None:
            validate_identity(identity)
            effective = Rights.none()
            for entry in self.entries:
                if entry.matches(identity):
                    effective = effective | entry.rights
            self._rights[identity] = effective
        return effective

    def allows(self, identity: str, letters: str) -> bool:
        """Does ``identity`` hold every right in ``letters`` here?"""
        return self.rights_for(identity).has_all(letters)

    def subjects(self) -> list[str]:
        return [entry.subject for entry in self.entries]

    # -- mutation ------------------------------------------------------ #

    def set_entry(self, subject: str, rights: Rights) -> None:
        """Add or replace the entry for ``subject``.

        Empty rights remove the entry — mirroring the Chirp ``setacl``
        convention where granting ``-`` deletes a subject.
        """
        self._rights.clear()
        self.entries = [e for e in self.entries if e.subject != subject]
        if not rights.is_empty:
            self.entries.append(AclEntry(subject=subject, rights=rights))

    def remove_entry(self, subject: str) -> None:
        self.set_entry(subject, Rights.none())

    # -- serialization ------------------------------------------------------ #

    def render(self) -> str:
        """Serialize to ``.__acl`` file text (one entry per line)."""
        return "".join(entry.render() + "\n" for entry in self.entries)

    @classmethod
    def parse(cls, text: str) -> "Acl":
        """Parse ``.__acl`` file text.

        Blank lines and ``#`` comments are tolerated (real config files
        accumulate them); a malformed line raises :class:`AclError` rather
        than being skipped — silently dropping an ACL line could widen or
        narrow access.
        """
        entries: list[AclEntry] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise AclError(f"line {lineno}: expected 'subject rights', got {raw!r}")
            subject, rights_text = parts
            try:
                rights = Rights.parse(rights_text)
            except RightsError as exc:
                raise AclError(f"line {lineno}: {exc}") from exc
            entries.append(AclEntry(subject=subject, rights=rights))
        return cls(entries=entries)

    @classmethod
    def for_owner(cls, identity: str) -> "Acl":
        """The fresh-home-directory ACL: full rights for one identity."""
        return cls(entries=[AclEntry(subject=identity, rights=Rights.full())])

    def copy(self) -> "Acl":
        """Independent copy (inheritance must not alias the parent's list)."""
        return Acl(entries=list(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
