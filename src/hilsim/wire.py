"""The line protocol of the devices, the server and the clients; it imports no other hilsim module."""

import json
import socket
from json.encoder import encode_basestring_ascii

# a ``wr`` of the whole map is about 8 KiB; a longer request line closes its connection
MAX_LINE = 64 * 1024
_RECV_BYTES = 8192  # the buffer size of the socket file objects this framing replaced

# the DUT shell's result names
SUCCESS = "Success"
ERROR = "Error"
TIMEOUT = "Timeout"

# the reference device's result codes
RESULT_SUCCESS = 0
RESULT_PARSE_ERROR = 1
RESULT_OUT_OF_RANGE = 2
RESULT_ACCESS_VIOLATION = 3
RESULT_INTERNAL_ERROR = 4

# the reference device's bare reply of each result code, by code
RESULT_LINES = [json.dumps({"result": code}) for code in range(RESULT_INTERNAL_ERROR + 1)]
# its reply to every accepted ``wr`` and ``ex``, which ``RefDeviceClient`` matches as text
REF_SUCCESS_REPLY = RESULT_LINES[RESULT_SUCCESS]

_SUCCESS_FIELDS = {"result": SUCCESS}


def dut_reply(line: str, fields: dict) -> str:
    """The DUT shell's reply to ``line``: byte for byte ``json.dumps({"cmd": [line], **fields})``."""
    # ``fields`` holds no "cmd"; a plain Success, most commands' reply, skips json.dumps
    tail = '"result": "Success"}' if fields == _SUCCESS_FIELDS else json.dumps(fields)[1:]
    return '{"cmd": [' + encode_basestring_ascii(line) + "], " + tail


def dut_success_text(line: str) -> str:
    """The DUT shell's reply to ``line`` when it answers a plain Success; ``DutClient.command`` matches it as text."""
    return dut_reply(line, _SUCCESS_FIELDS)


def json_object(text: str) -> dict | None:
    """The JSON object in a reply's text; None for no JSON, JSON nested too deep, or a non-object."""
    try:
        fields = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return fields if isinstance(fields, dict) else None


def decode_line(raw: bytes) -> str:
    """A line's bytes as text: UTF-8, with U+FFFD for each byte that is not."""
    return raw.decode("utf-8", "replace")


class LineTooLong(ValueError):
    """A line ran past ``MAX_LINE`` bytes before its newline."""


class LineSocket:
    """Newline-framed lines on a connected TCP socket, with Nagle's algorithm off.

    A line ends at its ``\n`` and is at most ``MAX_LINE`` bytes, newline included; it counts
    only once its newline has arrived, and reads as ``decode_line`` reads it. Bytes received
    past a newline stay buffered for the next line, so lines sent back to back are read in order.
    """

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buf = b""

    def send_line(self, line: str) -> None:
        self.sock.sendall((line + "\n").encode())

    def recv_line(self) -> str | None:
        """The next line without its newline, or None once the peer has closed; LineTooLong past the cap."""
        end = self._buf.find(b"\n")
        while end < 0:
            if len(self._buf) >= MAX_LINE:
                raise LineTooLong(f"no newline in {len(self._buf)} bytes")
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                return None
            self._buf += chunk
            end = self._buf.find(b"\n", len(self._buf) - len(chunk))  # only the new bytes can hold it
        if end >= MAX_LINE:
            raise LineTooLong(f"line of {end + 1} bytes")
        line, self._buf = self._buf[:end], self._buf[end + 1 :]
        return decode_line(line)
