"""Crypto-misuse rules (CRY0xx).

All three target the paper's §III-A AEAD contract: Enc(K, N, M) is only
safe while (K, N) pairs never repeat and K never ships in source.  The
catastrophic case is AES-GCM nonce reuse — it leaks the authentication
key — which is why constant nonces and rank-shared counter prefixes are
errors, not warnings.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import ModuleContext, call_name, keyword_arg
from repro.analysis.findings import rule

#: constructors whose first positional / ``key=`` argument is key material
_KEYED_CTORS = frozenset(("get_aead", "AESGCM", "SecurityConfig"))

_MIN_KEY_LEN = 16


def _enclosing_scope(mod: ModuleContext, node: ast.AST):
    return next(mod.enclosing_functions(node), mod.tree)


@rule(
    "CRY001",
    "constant AEAD nonce",
    severity="error",
    summary="seal()/open() is given a compile-time-constant nonce; a "
            "second message under the same key repeats (K, N) and, for "
            "GCM, forfeits both confidentiality and authenticity",
    hint="draw nonces from a per-sender source (repro.crypto.nonces: "
         "CounterNonces(rank) or RandomNonces) — never a literal",
    grounding="paper §III-A: nonces 'must never repeat' under one key; "
              "Joux's forbidden attack recovers the GHASH key from one "
              "nonce reuse",
)
def check_constant_nonce(mod: ModuleContext):
    reported: set[tuple[int, int]] = set()
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute) or \
                node.func.attr not in ("seal", "open"):
            continue
        if len(node.args) + len(node.keywords) < 2:
            continue  # not an AEAD call shape (e.g. pathlib's .open())
        nonce = keyword_arg(node, "nonce")
        if nonce is None and node.args:
            nonce = node.args[0]
        if nonce is None:
            continue
        scope = _enclosing_scope(mod, node)
        local = mod.local_consts(scope) if scope is not mod.tree else {}
        if mod.const_bytes_len(nonce, local) is None:
            continue
        if isinstance(nonce, ast.Name):
            # Anchor on the (single) binding so one constant reused by
            # several seal/open calls reports once.
            bound = local.get(nonce.id, mod.module_consts.get(nonce.id))
            anchor = bound if bound is not None else nonce
            key = (anchor.lineno, anchor.col_offset)
            if key in reported:
                continue
            reported.add(key)
            yield (anchor, f"nonce {nonce.id!r} is a compile-time "
                           f"constant passed to {node.func.attr}()")
        else:
            yield (node, f"literal nonce passed to {node.func.attr}()")


@rule(
    "CRY002",
    "rank-shared counter-nonce prefix",
    severity="error",
    summary="a rank program builds a counter nonce source with a "
            "constant sender id, so every rank emits the same nonce "
            "sequence under the shared key",
    hint="embed the rank in the prefix: CounterNonces(ctx.rank) / "
         "make_nonce_source('counter', ctx.rank)",
    grounding="paper §III-A's counter scheme is safe only with unique "
              "sender ids; repro.crypto.nonces.CounterNonces documents "
              "the 4-byte sender-id || 8-byte counter layout",
)
def check_shared_counter_prefix(mod: ModuleContext):
    for node in mod.walk_rank(ast.Call):
        name = call_name(node)
        if name == "CounterNonces":
            sender = keyword_arg(node, "sender_id")
            if sender is None and node.args:
                sender = node.args[0]
            if sender is None:
                yield (node, "CounterNonces() with the default sender "
                             "id — identical nonce prefix on every rank")
            elif isinstance(sender, ast.Constant):
                yield (node, f"CounterNonces({sender.value!r}) with a "
                             "constant sender id shared by every rank")
        elif name == "make_nonce_source":
            if not node.args or not (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "counter"
            ):
                continue
            sender = keyword_arg(node, "sender_id")
            if sender is None and len(node.args) > 1:
                sender = node.args[1]
            if sender is None or isinstance(sender, ast.Constant):
                yield (node, "make_nonce_source('counter') with a "
                             "constant sender id shared by every rank")


@rule(
    "CRY003",
    "key material in source",
    severity="warning",
    summary="key-sized constant bytes are embedded in source (a KEY "
            "constant or a keyed constructor's key argument)",
    hint="load keys from the environment or a key-exchange step "
         "(repro.encmpi.keyexchange); if the hardcoded key is "
         "deliberate, say so with a lint-ok comment",
    grounding="the paper itself hardcodes keys 'at build time' (§IV) "
              "and flags distribution as the open problem — this rule "
              "keeps every such site visible and justified",
)
def check_key_literals(mod: ModuleContext):
    for name, value in mod.module_consts.items():
        if "KEY" not in name.upper():
            continue
        length = mod.const_bytes_len(value)
        if length is not None and length >= _MIN_KEY_LEN:
            yield (value, f"{name} embeds {length} bytes of constant "
                          "key material")
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or \
                call_name(node) not in _KEYED_CTORS:
            continue
        key = keyword_arg(node, "key")
        if key is None and node.args and \
                call_name(node) != "SecurityConfig":
            key = node.args[0]
        if key is None or isinstance(key, ast.Name):
            continue  # name bindings are reported at their assignment
        length = mod.const_bytes_len(key)
        if length is not None and length >= _MIN_KEY_LEN:
            yield (node, f"{call_name(node)}() called with a "
                         f"{length}-byte literal key")
