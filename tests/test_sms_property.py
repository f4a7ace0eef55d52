"""Property test: segments written through the outbox, moved into an inbox
that already holds another message, come back as the payload."""

import os
import tempfile

import pytest

from voicepack.sms import TransportDir, inbox_collect, outbox_write, reassemble, segment

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
# each example makes its own transport root under the test's tmp_path
settings = hypothesis.settings(
    max_examples=100, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])


@settings
@given(st.binary(max_size=4000), st.integers(0, 255), st.integers(1, 255),
       st.binary(max_size=600))
def test_transport_roundtrip(tmp_path, payload, ref, offset, other_payload):
    tdir = TransportDir.under(tempfile.mkdtemp(dir=tmp_path))
    other = (ref + offset) % 256
    for seg in segment(other_payload, other) + segment(payload, ref)[::-1]:
        outbox_write(seg, tdir)
    for name in os.listdir(tdir.outbox):
        os.replace(tdir.outbox / name, tdir.inbox / name)
    assert reassemble(inbox_collect(tdir, ref)) == payload
    assert reassemble(inbox_collect(tdir, other)) == other_payload

