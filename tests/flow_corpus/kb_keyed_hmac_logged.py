# expect: TAINT001
"""Known-bad: a pre-keyed HMAC object holds the keyed hash states — logging
it, fresh or read back from its field, leaks the key like the bytes would."""
import logging

from repro.crypto import KeyedHmac, hkdf


class Endpoint:
    def __init__(self, root: bytes) -> None:
        self._hmac = KeyedHmac(hkdf(root, b"record-mac", 32), "sha256")
        logging.debug("mac ready: %r", KeyedHmac(root, "sha256"))

    def dump(self) -> None:
        logging.debug("mac state: %r", self._hmac)
