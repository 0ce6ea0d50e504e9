package cluster

// Applied returns the number of records of the global stream the shard
// has covered since it started or last left. Only tests read it.
func (s *Shard) Applied() uint64 { return s.applied.Load() }
