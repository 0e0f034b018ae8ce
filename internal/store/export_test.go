package store

// PendingCommits reports how many commits wait for a leader to write
// them, so the external tests can stage a batch before releasing it.
func (w *WAL) PendingCommits() int {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return len(w.pending)
}
