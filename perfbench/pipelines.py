"""The timed verdict pipeline of each input kind, its verdict lines and
its known-answer check.

`run` is the timed section: it parses the input text and calls the
library until every verdict exists.  `lines` renders the verdicts for
the digest.  `check` compares them with answers known without the code
being timed (closed forms, constructions, `membership_up` on UP words,
the brute-force oracle); it returns a list of disagreements.
"""

from __future__ import annotations


def _side(lib, s, side):
    Side = lib.diff_hierarchy.Side
    return s if side in (Side.SELF, Side.BOTH) else lib.space.complement(s)


def _rank_pipeline(calls, lib, s):
    """rank -> guesser -> text round trip -> certificate -> hierarchy."""
    trace = calls.remainder_chain(s)
    out = {"trace": trace}
    if not trace.guessable:
        return out
    ranked = calls.synthesize(s)
    text = calls.render_guesser(ranked.guesser, ranked)
    guesser, reparsed, _ = calls.parse_guesser(text)
    out.update(
        ranked=ranked,
        text=text,
        reparsed=(guesser, reparsed),
        certificate=calls.divergence_witness(guesser, s),
    )
    classification = calls.classify(s)
    level = calls.d_theta(classification.chain)
    out.update(
        classification=classification,
        level=level,
        round_trip=calls.equivalent(level, _side(lib, s, classification.side)),
    )
    return out


def _rank_lines(out):
    trace = out["trace"]
    lines = [
        f"guessable={str(trace.guessable).lower()}",
        f"alpha_S={trace.alpha_s}",
    ]
    if not trace.guessable:
        return lines
    c = out["classification"]
    return lines + [
        f"rank={trace.state_rank[trace.subject.start]}",
        out["text"],
        f"witness={out['certificate'] or 'NONE'}",
        f"side={c.side.value} theta={c.chain.theta_int}",
        f"round_trip={str(out['round_trip']).lower()}",
    ]


def _agree(lib, a, b, words) -> bool:
    member = lib.space.membership_up
    return all(member(a, w) == member(b, w) for w in words)


def _rank_check(lib, s, out, words, rank=None) -> list:
    """What holds for any guessable set; `rank` is a closed form when
    the caller knows one."""
    bad = []
    trace = out["trace"]
    got = trace.state_rank[s.start].to_int()
    if rank is not None and (got, len(trace.chain)) != (rank, rank + 1):
        bad.append(f"rank {got} chain {len(trace.chain)}, want {rank}, {rank + 1}")
    ranked = out["ranked"]
    if ranked.codomain.to_int() != got or not lib.guesser.check_bound(ranked):
        bad.append("synthesized guesser misses its rank bound")
    if out["reparsed"] != (ranked.guesser, ranked):
        bad.append("guesser text does not round trip")
    if out["certificate"] is not None or not all(
        lib.guesser.verify_on_up(ranked.guesser, s, w) for w in words
    ):
        bad.append("synthesized guesser is not certified")
    c = out["classification"]
    if c.rank.to_int() != got:
        bad.append("classify disagrees on the rank")
    if rank is not None and c.chain.theta_int != max(rank - 1, 1):
        bad.append(f"chain level {c.chain.theta_int}, want {max(rank - 1, 1)}")
    if not out["round_trip"] or not _agree(
        lib, out["level"], _side(lib, s, c.side), words
    ):
        bad.append("hierarchy round trip fails")
    return bad


# -- deep-rank: C_m and its complement ---------------------------------


def run_deep(calls, lib, item, words):
    s, _ = calls.parse_automaton(item.texts[0])
    return {"s": s, **_rank_pipeline(calls, lib, s)}


def lines_deep(item, out):
    return [f"deep m={item.expect['m']} co={int(item.expect['complemented'])}"] + _rank_lines(out)


def check_deep(lib, item, out, words):
    # rank m+1 and chain length m+2; the chain level is then m
    if not out["trace"].guessable:
        return ["C_m must be guessable"]
    return _rank_check(lib, out["s"], out, words[2], rank=item.expect["m"] + 1)


# -- many-priorities: dense pairs with distinct priorities -------------


def run_pair(calls, lib, item, words):
    s, _ = calls.parse_automaton(item.texts[0])
    t, _ = calls.parse_automaton(item.texts[1])
    twin, _ = calls.parse_automaton(item.texts[2])
    guesser, _, _ = calls.parse_guesser(item.texts[3])
    not_s = lib.space.complement(s)
    return {
        "s": s,
        "guesser": guesser,
        "chains": (calls.remainder_chain(s), calls.remainder_chain(t)),
        "empty": (calls.is_empty(s), calls.is_empty(not_s)),
        "equivalent": (
            calls.equivalent(s, t),
            calls.equivalent(s, twin),
            calls.equivalent(s, not_s),
        ),
        "witness": calls.divergence_witness(guesser, s),
    }


def lines_pair(item, out):
    return [
        "pair n={}/{}".format(*item.expect["n"]),
        "alpha_S={} {}".format(*(c.alpha_s for c in out["chains"])),
        "guessable={} {}".format(*(str(c.guessable).lower() for c in out["chains"])),
        "empty={} {}".format(*(str(e).lower() for e in out["empty"])),
        "equivalent={} {} {}".format(*(str(e).lower() for e in out["equivalent"])),
        f"witness={out['witness'] or 'NONE'}",
    ]


def check_pair(lib, item, out, words):
    # each automaton is one SCC with an even-max and an odd-max cycle
    bad = []
    s = out["s"]
    for chain in out["chains"]:
        if chain.guessable or len(chain.chain) != 1:
            bad.append("a dense pair automaton keeps every state")
    up = lib.space.UPWord.from_literal
    member = lib.space.membership_up
    if out["empty"] != (False, False) or (
        member(s, up(item.expect["in_s"])),
        member(s, up(item.expect["in_not_s"])),
    ) != (1, 0):
        bad.append("set and complement are both nonempty")
    if out["equivalent"] != (False, True, False):
        bad.append(f"equivalent {out['equivalent']}, want unrelated/twin/complement F/T/F")
    witness = out["witness"]
    if witness is None or lib.guesser.verify_on_up(out["guesser"], s, witness):
        bad.append("a non-guessable set needs a divergence witness")
    return bad


# -- random-corpus ------------------------------------------------------


def run_set(calls, lib, item, words):
    s, _ = calls.parse_automaton(item.texts[0])
    out = {"s": s, **_rank_pipeline(calls, lib, s)}
    if not out["trace"].guessable:
        guessers = [calls.parse_guesser(text)[0] for text in item.texts[1:]]
        out["guessers"] = guessers
        out["witnesses"] = [calls.divergence_witness(g, s) for g in guessers]
    return out


def lines_set(item, out):
    lines = _rank_lines(out)
    if not out["trace"].guessable:
        lines.append("witnesses=" + " ".join(str(w) for w in out["witnesses"]))
    return ["set k={}".format(item.expect["k"])] + lines


def check_set(lib, item, out, words):
    s = out["s"]
    if out["trace"].guessable:
        return _rank_check(lib, s, out, words[s.alphabet])
    return [
        "random guesser on a non-guessable set has no valid witness"
        for g, w in zip(out["guessers"], out["witnesses"])
        if w is None or lib.guesser.verify_on_up(g, s, w)
    ]


def run_chain(calls, lib, item, words):
    members = [
        lib.space.open_from_parity(calls.parse_automaton(text)[0])
        for text in item.texts
    ]
    chain = calls.OpenChain(tuple(members))
    level = calls.d_theta(chain)
    ranked = calls.chain_to_guesser(chain)
    certificate = calls.divergence_witness(ranked.guesser, level)
    g = ranked.guesser
    if g.output[g.start] == 0:
        back, target = calls.guesser_to_chain(ranked), level
    else:
        flipped = lib.guesser.RankedGuesser(
            lib.guesser.flip_outputs(g), ranked.bound, ranked.codomain
        )
        back, target = calls.guesser_to_chain(flipped), lib.space.complement(level)
    back_level = calls.d_theta(back)
    return {
        "members": members,
        "level": level,
        "ranked": ranked,
        "certificate": certificate,
        "back": (back_level, target, back.theta_int),
        "round_trip": calls.equivalent(back_level, target),
    }


def lines_chain(item, out):
    g = out["ranked"].guesser
    return [
        f"chain k={item.expect['k']} theta={len(out['members'])}",
        f"level_states={out['level'].n_states} guesser_states={g.n_states}",
        f"codomain={out['ranked'].codomain} root={g.output[g.start]}",
        f"witness={out['certificate'] or 'NONE'}",
        f"back_theta={out['back'][2]} round_trip={str(out['round_trip']).lower()}",
    ]


def check_chain(lib, item, out, words):
    bad = []
    members, level = out["members"], out["level"]
    theta = len(members)
    check_words = words[item.expect["k"]]
    member = lib.space.membership_up
    # level membership by definition: least entered index has parity
    # opposite to theta
    for w in check_words:
        eta = next((i for i, a in enumerate(members) if member(a.automaton, w)), None)
        want = int(eta is not None and eta % 2 != theta % 2)
        if member(level, w) != want:
            bad.append(f"level set wrong on {w}")
            break
    ranked = out["ranked"]
    if ranked.codomain.to_int() != theta + 1:
        bad.append("chain guesser codomain is not theta+1")
    if out["certificate"] is not None or not all(
        lib.guesser.verify_on_up(ranked.guesser, level, w) for w in check_words
    ):
        bad.append("chain guesser is not certified")
    back_level, target, _ = out["back"]
    if not out["round_trip"] or not _agree(lib, back_level, target, check_words):
        bad.append("chain round trip fails")
    return bad


def run_table(calls, lib, item, words):
    return {"report": calls.cross_validate([item.texts[0]])}


def lines_table(item, out):
    table = item.texts[0]
    values = "".join(str(v) for v in table.values)
    return [f"table k={table.alphabet} d={table.depth} {values}"] + out[
        "report"
    ].summary_lines()


def check_table(lib, item, out, words):
    report = out["report"]
    if report.ok and report.tables_checked == 1:
        return []
    return ["pipeline disagrees with the brute-force oracle"]


def run_based(calls, lib, item, words):
    s, _ = calls.parse_automaton(item.texts[0])
    k = s.alphabet
    ranked = calls.synthesize(s)
    lifted = calls.cylinder_simulation(ranked.guesser, k)
    family = lib.based_guessing.cylinders_family(k)
    return {
        "lifted": lifted,
        "ok": [calls.verify_based(lifted, family, s, w) for w in words[k]],
    }


def lines_based(item, out):
    return [
        f"based k={item.expect['k']} lifted_states={out['lifted'].n_states}",
        "ok=" + "".join(str(int(v)) for v in out["ok"]),
    ]


def check_based(lib, item, out, words):
    # a clopen set is guessable, so its canonical guesser lifted to the
    # cylinder family converges on every point
    return [] if all(out["ok"]) else ["lifted guesser fails on a UP word"]


KINDS = {
    "deep": (run_deep, lines_deep, check_deep),
    "pair": (run_pair, lines_pair, check_pair),
    "set": (run_set, lines_set, check_set),
    "chain": (run_chain, lines_chain, check_chain),
    "table": (run_table, lines_table, check_table),
    "based": (run_based, lines_based, check_based),
}
