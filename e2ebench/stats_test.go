package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	var l latencies
	for i := int64(100); i >= 1; i-- {
		l = append(l, i)
	}
	s := l.sorted()
	for _, c := range []struct {
		q      float64
		ns     int64
		beyond int
	}{
		{0.5, 50, 50},
		{0.99, 99, 1},
		{0.01, 1, 99},
		{1, 100, 0},
	} {
		got := s.at(c.q)
		if got.ns != c.ns || got.beyond != c.beyond || got.n != 100 {
			t.Errorf("q=%g: got %+v, want ns=%d beyond=%d n=100", c.q, got, c.ns, c.beyond)
		}
	}
	// Ties at the percentile are not beyond it.
	ties := latencies{1, 2, 2, 2, 3}.sorted()
	if got := ties.at(0.5); got.ns != 2 || got.beyond != 1 {
		t.Errorf("ties: got %+v, want ns=2 beyond=1", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {50, 0.8}, {40, 0.75}, {39, 0.5}} {
		var l latencies
		for i := 1; i <= c.n; i++ {
			l = append(l, int64(i))
		}
		if got := l.tail(); got.q != c.q || got.beyond < 10 && c.q != 0.5 {
			t.Errorf("n=%d: tail %+v, want p%g with at least 10 beyond", c.n, got, c.q*100)
		}
	}
}
