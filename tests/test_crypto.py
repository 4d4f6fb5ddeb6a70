"""Unit + property tests for the crypto substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import COUNTER_BITS, LINE_SIZE, LSB_BITS, MAC_BITS
from repro.crypto.hashing import KeyedBlake2b, keyed_hash, mac54, mac_n
from repro.crypto.otp import CounterModeEngine, pad_message
from repro.tree.sit import SITAuthenticator, data_message, node_message
from repro.util.bitfield import unpack_fields

KEY = b"test-key"
OTHER_KEY = b"other-key"


class TestKeyedHash:
    def test_deterministic(self):
        assert keyed_hash(KEY, 1, "a") == keyed_hash(KEY, 1, "a")

    def test_key_separates(self):
        assert keyed_hash(KEY, 1) != keyed_hash(OTHER_KEY, 1)

    def test_order_matters(self):
        assert keyed_hash(KEY, 1, 2) != keyed_hash(KEY, 2, 1)

    def test_structural_separation(self):
        """Concatenation ambiguity: ("ab","c") must not equal ("a","bc")."""
        assert keyed_hash(KEY, "ab", "c") != keyed_hash(KEY, "a", "bc")

    def test_bytes_vs_str_distinct(self):
        assert keyed_hash(KEY, b"x") != keyed_hash(KEY, "x")

    def test_int_vs_str_distinct(self):
        assert keyed_hash(KEY, 49) != keyed_hash(KEY, "1")

    def test_rejects_negative_int(self):
        with pytest.raises(ValueError):
            keyed_hash(KEY, -1)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            keyed_hash(KEY, True)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            keyed_hash(KEY, 1.5)

    def test_64_bit_range(self):
        value = keyed_hash(KEY, "probe")
        assert 0 <= value < 1 << 64


class TestMacTruncation:
    def test_mac54_width(self):
        for probe in range(32):
            assert mac54(KEY, probe) < 1 << MAC_BITS

    def test_mac_n_width(self):
        assert mac_n(KEY, 10, "x") < 1 << 10

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=50)
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            assert keyed_hash(KEY, a) != keyed_hash(KEY, b)


def _field(bits):
    return st.integers(min_value=0, max_value=(1 << bits) - 1)


_LINES = st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE)
_NODE_WIDTHS = [8, 64] + [COUNTER_BITS] * 8 + [COUNTER_BITS, LSB_BITS]


def _decode(message, widths):
    """The fields of a fixed-width message, MSB first."""
    return unpack_fields(int.from_bytes(message[1:], "big"), widths)


class TestMessageFormats:
    """The node MAC, data MAC and pad each hash one fixed-width,
    big-endian message: a domain byte, then every field at its
    paper width. The messages must be injective, like the tagged
    serializer they replaced."""

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=50)
    def test_keyed_blake2b_matches_fresh_instance(self, message):
        import hashlib

        prf = KeyedBlake2b(KEY, digest_size=8)
        fresh = hashlib.blake2b(message, key=KEY, digest_size=8)
        assert prf.digest(message) == fresh.digest()
        # the prototype is not consumed: a second digest still matches
        assert prf.digest(message) == fresh.digest()

    def test_data_mac_known_answer(self):
        auth = SITAuthenticator(KEY)
        assert auth.data_mac(7, bytes(range(64)), 3, 3) == 0x2CF0113C35A3D0

    def test_pad_known_answer(self):
        assert CounterModeEngine(KEY).one_time_pad(7, 3).hex() == (
            "abad81dba51fd320b43a402f89b94885e5e7a73991d5e4c0325b06eb1970"
            "ed9687e30c9f5d6bc4feb33f80c3b2b864f2b0a9609e397fe5ca90d1f45e"
            "f2dc08db"
        )

    def test_domains_and_lengths(self):
        assert node_message(0, 0, (0,) * 8, 0, 0) == b"N" + bytes(74)
        assert data_message(0, bytes(64), 0, 0) == b"D" + bytes(81)
        assert pad_message(0, 0) == b"P" + bytes(17)

    # decoding each message back to its fields proves that distinct
    # in-width field tuples never share a message
    @given(_field(8), _field(64), st.lists(_field(COUNTER_BITS),
                                           min_size=8, max_size=8),
           _field(COUNTER_BITS), _field(LSB_BITS))
    @settings(max_examples=100)
    def test_node_message_is_injective(self, level, index, counters,
                                       parent_counter, lsbs):
        message = node_message(level, index, counters, parent_counter,
                               lsbs)
        assert _decode(message, _NODE_WIDTHS) == [
            level, index, *counters, parent_counter, lsbs]

    @given(_field(64), _LINES, _field(COUNTER_BITS), _field(LSB_BITS))
    @settings(max_examples=100)
    def test_data_message_is_injective(self, address, ciphertext,
                                       counter, lsbs):
        message = data_message(address, ciphertext, counter, lsbs)
        assert message[-LINE_SIZE:] == ciphertext
        fields = _decode(message[:-LINE_SIZE], [64, COUNTER_BITS,
                                                LSB_BITS])
        assert fields == [address, counter, lsbs]

    @given(_field(64), _field(72))
    @settings(max_examples=100)
    def test_pad_message_is_injective(self, address, counter):
        assert _decode(pad_message(address, counter), [64, 72]) == [
            address, counter]

    @pytest.mark.parametrize("field, bits", [
        (0, 8), (1, 64), (2, COUNTER_BITS), (3, COUNTER_BITS),
        (4, LSB_BITS),
    ])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_node_field_outside_its_width_is_rejected(self, field, bits,
                                                      overflow):
        args = [1, 2, [3] * 8, 4, 5]
        value = (1 << bits) if overflow else -1
        if field == 2:
            args[2] = [3] * 7 + [value]
        else:
            args[field] = value
        with pytest.raises(ValueError):
            node_message(*args)

    @pytest.mark.parametrize("field, bits", [
        (0, 64), (2, COUNTER_BITS), (3, LSB_BITS),
    ])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_data_field_outside_its_width_is_rejected(self, field, bits,
                                                      overflow):
        args = [1, bytes(LINE_SIZE), 2, 3]
        args[field] = (1 << bits) if overflow else -1
        with pytest.raises(ValueError):
            data_message(*args)

    @pytest.mark.parametrize("args", [
        (1 << 64, 0), (-1, 0), (0, 1 << 72), (0, -1),
    ])
    def test_pad_field_outside_its_width_is_rejected(self, args):
        with pytest.raises(ValueError):
            pad_message(*args)

    def test_wrong_counter_count_or_line_size_is_rejected(self):
        with pytest.raises(ValueError):
            node_message(0, 0, (0,) * 7, 0, 0)
        with pytest.raises(ValueError):
            data_message(0, bytes(LINE_SIZE - 1), 0, 0)


class TestCounterModeEngine:
    def setup_method(self):
        self.engine = CounterModeEngine(KEY)

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            CounterModeEngine(b"")

    def test_pad_length(self):
        assert len(self.engine.one_time_pad(0, 0)) == LINE_SIZE

    def test_roundtrip(self):
        plaintext = bytes(range(64))
        ciphertext = self.engine.encrypt(plaintext, 7, 3)
        assert self.engine.decrypt(ciphertext, 7, 3) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != plaintext

    def test_counter_changes_ciphertext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != \
            self.engine.encrypt(plaintext, 7, 4)

    def test_address_changes_ciphertext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != \
            self.engine.encrypt(plaintext, 8, 3)

    def test_wrong_counter_garbles(self):
        plaintext = bytes(range(64))
        ciphertext = self.engine.encrypt(plaintext, 7, 3)
        assert self.engine.decrypt(ciphertext, 7, 4) != plaintext

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            self.engine.encrypt(b"short", 0, 0)

    @given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 40))
    @settings(max_examples=40)
    def test_roundtrip_property(self, plaintext, address, counter):
        ciphertext = self.engine.encrypt(plaintext, address, counter)
        assert self.engine.decrypt(ciphertext, address, counter) == \
            plaintext

    def test_pads_unique_across_addr_counter(self):
        pads = {
            self.engine.one_time_pad(addr, counter)
            for addr in range(8) for counter in range(8)
        }
        assert len(pads) == 64
