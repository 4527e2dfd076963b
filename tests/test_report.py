from frontierkit.report import Check, VerificationReport


def test_extend_prefixes_the_ids_and_carries_every_field():
    sub = VerificationReport("sub")
    sub.add("usc-upper", True, note="unbounded side")
    sub.add("bound", False, 0.5, location="u=1", note="3 trials")
    rep = VerificationReport("suite")
    rep.add("own", True)
    rep.extend("sub/", sub)
    assert rep.checks == [
        Check("own", True),
        Check("sub/usc-upper", True, note="unbounded side"),
        Check("sub/bound", False, 0.5, "u=1", "3 trials"),
    ]
    assert [c.check_id for c in sub.checks] == ["usc-upper", "bound"]
    assert not rep.overall_pass
