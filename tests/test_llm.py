"""Prompt construction, transcripts, and backend behavior."""

import json
import sys

import pytest

from uclgen import llm
from uclgen.llm import (
    BackendError,
    HttpBackend,
    MockBackend,
    RecordingBackend,
    ReplayBackend,
    Transcript,
    child_language_description,
    holefill_prompt,
    initial_prompt,
    prompt_sha256,
)


def test_initial_prompt_shape():
    p = initial_prompt("Model a counter.")
    lines = p.splitlines()
    assert lines[0] == "Write Python code to complete the following task."
    assert "> Model a counter." in lines
    assert "Reply with your code inside one unique code block." in lines
    assert "I can definitely do that! Here is the code:" in lines
    assert lines[-1] == "```"
    assert child_language_description() in p


def test_holefill_prompt_embeds_partial_code():
    p = holefill_prompt("Model a counter.", "class M(Module):\n    ??")
    assert p.startswith(
        "Fix the following Python code by replacing every occurrence of "
        "`??` with the correct code."
    )
    assert "class M(Module):\n    ??" in p
    assert "Make sure that your code completes the following task." in p
    assert "> Model a counter." in p
    assert p.endswith("```")


def test_prompts_read_the_language_description_once(monkeypatch):
    reads = []
    files = llm.resources.files

    class CountingResources:
        @staticmethod
        def files(package):
            reads.append(package)
            return files(package)

    child_language_description.cache_clear()
    monkeypatch.setattr(llm, "resources", CountingResources)
    try:
        first = initial_prompt("Model a counter.")
        second = holefill_prompt("Model a counter.", "class M(Module):\n    ??")
    finally:
        child_language_description.cache_clear()
    assert reads == ["uclgen.resources"]
    assert child_language_description() in first
    assert child_language_description() in second


def test_prompt_sha256_is_stable():
    assert prompt_sha256("abc") == prompt_sha256("abc")
    assert prompt_sha256("abc") != prompt_sha256("abd")


def test_transcript_round_trips_through_jsonl(tmp_path):
    t = Transcript()
    t.record("prompt one", "response one", 12.5, "mock")
    t.record("prompt two", "response two", 3.25, "mock")
    path = tmp_path / "t.jsonl"
    t.save(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["seq"] == 0
    loaded = Transcript.load(path)
    assert [e.response for e in loaded.entries] == [
        "response one", "response two",
    ]
    assert loaded.entries[1].prompt_sha256 == prompt_sha256("prompt two")


def test_mock_backend_serves_in_order_then_fails():
    b = MockBackend(["a", "b"])
    assert b.complete("p1") == "a"
    assert b.complete("p2") == "b"
    with pytest.raises(BackendError):
        b.complete("p3")


def test_recording_backend_captures_exchanges():
    t = Transcript()
    b = RecordingBackend(MockBackend(["hi"]), t)
    assert b.complete("hello") == "hi"
    assert len(t.entries) == 1
    assert t.entries[0].prompt == "hello"
    assert t.entries[0].backend == "mock"


def test_replay_backend_verifies_prompt_hash(tmp_path):
    t = Transcript()
    t.record("the prompt", "the answer", 1.0, "mock")
    path = tmp_path / "t.jsonl"
    t.save(path)
    replay = ReplayBackend.from_file(path)
    assert replay.complete("the prompt") == "the answer"
    replay = ReplayBackend.from_file(path)
    with pytest.raises(BackendError):
        replay.complete("a different prompt")


def test_replay_backend_loose_mode_skips_verification(tmp_path):
    t = Transcript()
    t.record("the prompt", "the answer", 1.0, "mock")
    path = tmp_path / "t.jsonl"
    t.save(path)
    replay = ReplayBackend.from_file(path, loose=True)
    assert replay.complete("anything") == "the answer"


def test_replay_backend_exhaustion(tmp_path):
    t = Transcript()
    t.record("p", "r", 1.0, "mock")
    path = tmp_path / "t.jsonl"
    t.save(path)
    replay = ReplayBackend.from_file(path)
    replay.complete("p")
    with pytest.raises(BackendError):
        replay.complete("p")


def test_http_backend_requires_key_from_environment(monkeypatch):
    monkeypatch.delenv("UCLGEN_API_KEY", raising=False)
    b = HttpBackend(url="http://localhost:1/v1/chat", model="m")
    with pytest.raises(BackendError):
        b.complete("hello")


def test_http_backend_wraps_request_failures(monkeypatch):
    monkeypatch.setenv("UCLGEN_API_KEY", "test-not-a-real-key")
    # nothing listens on this port, so the request itself must fail
    b = HttpBackend(url="http://127.0.0.1:9/v1/chat", model="m", timeout=0.2)
    with pytest.raises(BackendError):
        b.complete("hello")


class _ChatReply:
    """What `requests.post` returns for a chat-completions call."""

    def __init__(self, content):
        self.content = content

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


@pytest.mark.parametrize("content, kind", [(None, "NoneType"), (7, "int"),
                                           ("hi", None)])
def test_http_backend_returns_only_text(monkeypatch, content, kind):
    requests = pytest.importorskip("requests")
    monkeypatch.setenv("UCLGEN_API_KEY", "test-not-a-real-key")
    monkeypatch.setattr(requests, "post",
                        lambda *args, **kwargs: _ChatReply(content))
    t = Transcript()
    b = RecordingBackend(HttpBackend(url="http://127.0.0.1:9/v1/chat",
                                     model="m"), t)
    if kind is None:
        assert b.complete("hello") == content
        assert [e.response for e in t.entries] == [content]
        return
    with pytest.raises(BackendError, match=rf"reply is not text \({kind}\)"):
        b.complete("hello")
    assert t.entries == []  # a recording never holds a reply that is not text


@pytest.mark.parametrize("key", [None, "test-not-a-real-key"])
def test_http_backend_without_requests_raises_backend_error(monkeypatch, key):
    # a `None` entry makes `import requests` raise ImportError
    monkeypatch.setitem(sys.modules, "requests", None)
    if key is None:
        monkeypatch.delenv("UCLGEN_API_KEY", raising=False)
    else:
        monkeypatch.setenv("UCLGEN_API_KEY", key)
    b = HttpBackend(url="http://127.0.0.1:9/v1/chat", model="m", timeout=0.2)
    with pytest.raises(BackendError,
                       match="UCLGEN_API_KEY" if key is None else "requests"):
        b.complete("hello")
