"""Prompt construction and LLM backends.

Two prompt shapes are used: the initial request for code and the
hole-fixing request. Both end with a primed partial assistant reply so
that models answer with a code block immediately.

Backends share one interface: `complete(prompt) -> str`. The HTTP
backend talks to a chat-completions endpoint; the replay backend serves
answers from a recorded transcript; the mock backend serves a canned
list. All calls can be recorded to a JSONL transcript.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Protocol

PARENT_LANGUAGE = "Python"


@functools.cache
def child_language_description() -> str:
    """The child-language section of every prompt, read from the package
    resource once per process: the text is a constant of the install."""
    ref = resources.files("uclgen.resources").joinpath("child_language.md")
    return ref.read_text(encoding="utf-8").strip()


def initial_prompt(task: str) -> str:
    return "\n".join(
        [
            f"Write {PARENT_LANGUAGE} code to complete the following task.",
            "",
            f"> {task.strip()}",
            "",
            "Reply with your code inside one unique code block.",
            "",
            child_language_description(),
            "",
            "I can definitely do that! Here is the code:",
            "```",
        ]
    )


def holefill_prompt(task: str, code: str) -> str:
    return "\n".join(
        [
            f"Fix the following {PARENT_LANGUAGE} code by replacing every "
            "occurrence of `??` with the correct code.",
            "",
            "```",
            code.rstrip("\n"),
            "```",
            "",
            "Make sure that your code completes the following task.",
            "",
            f"> {task.strip()}",
            "",
            "Reply with your code inside one unique code block.",
            "",
            child_language_description(),
            "",
            "I can definitely do that! Here is the code:",
            "```",
        ]
    )


def prompt_sha256(prompt: str) -> str:
    # imported here: loading OpenSSL adds about 3.6 MiB of resident memory,
    # and only recording and strict replay hash prompts
    import hashlib

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class BackendError(RuntimeError):
    """The backend could not produce a response."""


class Backend(Protocol):
    name: str

    def complete(self, prompt: str) -> str: ...


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------

@dataclass
class TranscriptEntry:
    seq: int
    prompt_sha256: str
    prompt: str
    response: str
    ms: float
    backend: str

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class Transcript:
    entries: list[TranscriptEntry] = field(default_factory=list)

    def record(self, prompt: str, response: str, ms: float,
               backend: str) -> None:
        self.entries.append(
            TranscriptEntry(
                seq=len(self.entries),
                prompt_sha256=prompt_sha256(prompt),
                prompt=prompt,
                response=response,
                ms=ms,
                backend=backend,
            )
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            "".join(e.to_json() + "\n" for e in self.entries),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        t = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            raw = json.loads(line)
            t.entries.append(
                TranscriptEntry(
                    seq=raw["seq"],
                    prompt_sha256=raw["prompt_sha256"],
                    prompt=raw.get("prompt", ""),
                    response=raw["response"],
                    ms=raw.get("ms", 0.0),
                    backend=raw.get("backend", "unknown"),
                )
            )
        return t


class RecordingBackend:
    """Wraps another backend and records every exchange."""

    def __init__(self, inner: Backend, transcript: Transcript):
        self.inner = inner
        self.transcript = transcript
        self.name = inner.name

    def complete(self, prompt: str) -> str:
        t0 = time.monotonic()
        response = self.inner.complete(prompt)
        ms = (time.monotonic() - t0) * 1000.0
        self.transcript.record(prompt, response, ms, self.inner.name)
        return response


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class MockBackend:
    """Serves a fixed list of responses in order."""

    name = "mock"

    def __init__(self, responses: list[str]):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        if self.calls >= len(self.responses):
            raise BackendError(
                f"mock backend exhausted after {self.calls} call(s)"
            )
        got = self.responses[self.calls]
        self.calls += 1
        return got


class ReplayBackend:
    """Replays a recorded transcript.

    By default each prompt must hash to the recorded prompt, which keeps
    replays honest; pass loose=True to replay by sequence only.
    """

    name = "replay"

    def __init__(self, transcript: Transcript, loose: bool = False):
        self.transcript = transcript
        self.loose = loose
        self.calls = 0

    @classmethod
    def from_file(cls, path: str | Path, loose: bool = False) -> "ReplayBackend":
        return cls(Transcript.load(path), loose=loose)

    def complete(self, prompt: str) -> str:
        if self.calls >= len(self.transcript.entries):
            raise BackendError(
                f"transcript exhausted after {self.calls} call(s)"
            )
        entry = self.transcript.entries[self.calls]
        self.calls += 1
        if not self.loose and prompt_sha256(prompt) != entry.prompt_sha256:
            raise BackendError(
                f"prompt mismatch at transcript seq {entry.seq}: the live "
                "prompt differs from the recorded one"
            )
        return entry.response


class HttpBackend:
    """Chat-completions over HTTP.

    The API key is read from the environment (UCLGEN_API_KEY by default)
    so that it never appears on a command line or in a config file.
    """

    name = "http"

    def __init__(
        self,
        url: str,
        model: str,
        api_key_env: str = "UCLGEN_API_KEY",
        timeout: float = 120.0,
    ):
        self.url = url
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise BackendError(
                f"no API key in environment variable {self.api_key_env}"
            )
        try:
            import requests
        except ImportError as exc:
            raise BackendError(
                "the HTTP backend needs the 'requests' package") from exc
        payload = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": prompt}],
        }
        try:
            resp = requests.post(
                self.url,
                json=payload,
                headers={"Authorization": f"Bearer {key}"},
                timeout=self.timeout,
            )
            resp.raise_for_status()
            body = resp.json()
            content = body["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise BackendError(f"HTTP backend failed: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(
                f"malformed chat-completions response: {exc}"
            ) from exc
        if not isinstance(content, str):  # a chat API may send null
            raise BackendError(f"reply is not text ({type(content).__name__})")
        return content
