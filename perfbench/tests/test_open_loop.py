"""Open-loop latency is measured from when a request was due."""

import service_mix


def test_a_stall_delays_every_request_due_during_it():
    now = [0.0]

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    def operation(i):
        now[0] += 0.25 if i == 1 else 0.001  # request 1 stalls the server
        return "read", True

    due = [0.01 * i for i in range(10)]
    samples = service_mix.open_loop(due, operation, clock=clock, sleep=sleep)

    assert [s.due for s in samples] == due
    assert samples[0].latency == 0.001 and samples[0].lag == 0.0
    # Request 1 itself takes the stall.
    assert abs(samples[1].latency - 0.25) < 1e-12
    # Requests 2.. were due during the stall: each waited from its due
    # time, not from the (late) moment it could finally be sent.
    for k in range(2, 10):
        sent = 0.01 + 0.25 + 0.001 * (k - 2)
        assert abs(samples[k].lag - (sent - due[k])) < 1e-12
        assert abs(samples[k].latency - (sent + 0.001 - due[k])) < 1e-12
        assert samples[k].latency > 0.25 - 0.01 * k
