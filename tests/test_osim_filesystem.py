"""Unit tests for the simulated filesystem: paths, xattrs, persistence."""

import pytest

from repro.core import Label, LabelPair, Tag, TagAllocator
from repro.osim import (
    EINVAL,
    File,
    Filesystem,
    Inode,
    InodeType,
    OpenMode,
    SyscallError,
    XATTR_INTEGRITY,
    XATTR_SECRECY,
    decode_label,
    encode_label,
)

A, B = Tag(11, "a"), Tag(12, "b")


@pytest.fixture
def fs() -> Filesystem:
    fs = Filesystem()
    etc = Inode(InodeType.DIRECTORY, mode=0o755)
    fs.link_child(fs.root, "etc", etc)
    fs.link_child(etc, "hosts", Inode(InodeType.REGULAR))
    return fs


class TestPathResolution:
    def test_absolute(self, fs):
        assert fs.resolve("/etc/hosts").itype is InodeType.REGULAR

    def test_root(self, fs):
        assert fs.resolve("/") is fs.root

    def test_relative_from_cwd(self, fs):
        etc = fs.resolve("/etc")
        assert fs.resolve("hosts", cwd=etc).itype is InodeType.REGULAR

    def test_dot_segments_ignored(self, fs):
        assert fs.resolve("/./etc/./hosts") is fs.resolve("/etc/hosts")

    def test_enoent(self, fs):
        with pytest.raises(SyscallError) as err:
            fs.resolve("/missing")
        assert "ENOENT" in str(err.value)

    def test_enotdir(self, fs):
        with pytest.raises(SyscallError) as err:
            fs.resolve("/etc/hosts/inner")
        assert "ENOTDIR" in str(err.value)

    def test_resolve_parent(self, fs):
        parent, name = fs.resolve_parent("/etc/hosts")
        assert parent is fs.resolve("/etc") and name == "hosts"

    def test_walk_components_yields_directories(self, fs):
        walked = list(fs.walk_components("/etc/hosts"))
        assert walked == [fs.root, fs.resolve("/etc")]


class TestLinking:
    def test_duplicate_name_rejected(self, fs):
        with pytest.raises(SyscallError) as err:
            fs.link_child(fs.root, "etc", Inode(InodeType.DIRECTORY))
        assert "EEXIST" in str(err.value)

    def test_bad_names_rejected(self, fs):
        for name in ("", "a/b"):
            with pytest.raises(SyscallError):
                fs.link_child(fs.root, name, Inode(InodeType.REGULAR))

    def test_unlink(self, fs):
        etc = fs.resolve("/etc")
        fs.unlink_child(etc, "hosts")
        with pytest.raises(SyscallError):
            fs.resolve("/etc/hosts")

    def test_unlink_nonempty_dir_rejected(self, fs):
        with pytest.raises(SyscallError) as err:
            fs.unlink_child(fs.root, "etc")
        assert "ENOTEMPTY" in str(err.value)


class TestDataAccess:
    def test_write_then_read(self, fs):
        inode = fs.resolve("/etc/hosts")
        wfile = File(inode, OpenMode.parse("w"))
        assert fs.write(wfile, b"localhost") == 9
        rfile = File(inode, OpenMode.parse("r"))
        assert fs.read(rfile) == b"localhost"

    def test_offset_tracking(self, fs):
        inode = fs.resolve("/etc/hosts")
        fs.write(File(inode, OpenMode.parse("w")), b"abcdef")
        rfile = File(inode, OpenMode.parse("r"))
        assert fs.read(rfile, 2) == b"ab"
        assert fs.read(rfile, 2) == b"cd"

    def test_append_mode(self, fs):
        inode = fs.resolve("/etc/hosts")
        fs.write(File(inode, OpenMode.parse("w")), b"one")
        fs.write(File(inode, OpenMode.parse("a")), b"two")
        assert bytes(inode.data) == b"onetwo"

    def test_sparse_write_zero_fills(self, fs):
        inode = fs.resolve("/etc/hosts")
        file = File(inode, OpenMode.parse("w"))
        file.offset = 3
        fs.write(file, b"x")
        assert bytes(inode.data) == b"\0\0\0x"

    def test_directory_io_rejected(self, fs):
        with pytest.raises(SyscallError):
            fs.read(File(fs.root, OpenMode.parse("r")))


class TestLabelPersistence:
    def test_encode_decode_roundtrip(self):
        allocator = TagAllocator()
        t1, t2 = allocator.alloc("x"), allocator.alloc("y")
        label = Label.of(t1, t2)
        assert decode_label(encode_label(label), allocator) == label

    def test_decode_unknown_tags_reconstructed(self):
        blob = encode_label(Label.of(A, B))
        decoded = decode_label(blob, TagAllocator())
        assert {t.value for t in decoded} == {A.value, B.value}

    def test_corrupt_xattr_rejected(self):
        with pytest.raises(ValueError):
            decode_label(b"\x00\x01\x02", TagAllocator())

    def test_labels_written_to_xattrs_at_creation(self):
        inode = Inode(InodeType.REGULAR, LabelPair(Label.of(A)))
        assert inode.xattrs[XATTR_SECRECY] == encode_label(Label.of(A))
        assert inode.xattrs[XATTR_INTEGRITY] == b""

    def test_remount_restores_labels(self, fs):
        allocator = TagAllocator()
        tag = allocator.alloc("secret")
        labeled = Inode(InodeType.REGULAR, LabelPair(Label.of(tag)))
        fs.link_child(fs.resolve("/etc"), "secret", labeled)
        fs.remount(allocator)
        restored = fs.resolve("/etc/secret")
        assert restored.labels.secrecy == Label.of(tag)
        # the in-memory label was actually dropped and re-read
        assert restored.labels.secrecy.tags()[0] is tag

    def test_pipe_and_socket_inodes_have_no_xattrs(self):
        assert Inode(InodeType.PIPE).xattrs == {}


class TestOpenMode:
    def test_parse_variants(self):
        assert OpenMode.parse("r") == OpenMode.READ
        assert OpenMode.parse("w") & OpenMode.WRITE
        assert OpenMode.parse("a") & OpenMode.APPEND
        assert OpenMode.parse("r+") & OpenMode.READ

    def test_bad_mode(self):
        with pytest.raises(SyscallError):
            OpenMode.parse("rw+x")

    def test_unhashable_mode_is_einval(self):
        with pytest.raises(SyscallError) as e:
            OpenMode.parse(["r"])
        assert e.value.errno == EINVAL
