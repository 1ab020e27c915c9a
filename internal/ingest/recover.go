package ingest

// Boot-time session recovery (DESIGN.md §16). OpenJournal replays the
// on-disk journal into RecoveredSession values; Recover re-installs each of
// them as a detached session — same identity, same tenant accounting, same
// pinned model, committed offsets rolled back to the last durable snapshot —
// so a client reconnecting after the daemon restarts resumes through the
// ordinary resume path, indistinguishable from a resume after a dropped
// connection.

// Recover re-installs journaled sessions as detached sessions awaiting
// reconnect, returning how many were recovered. A session that cannot be
// restored — its model no longer resolves, its tenant quota is exhausted,
// its id collides — is skipped, logged, and marked finished in the journal;
// the client's reconnect then opens a fresh session instead of resuming.
// Each sink is restored from pool, which resolves the journaled model
// version exactly as a live admission would. Call before Serve, with the
// same Journal installed in cfg.Journal.
func (srv *Server) Recover(sessions []RecoveredSession, pool *SharedPool) int {
	recovered := 0
	for _, rs := range sessions {
		if srv.recoverOne(rs, pool) {
			recovered++
		}
	}
	return recovered
}

func (srv *Server) recoverOne(rs RecoveredSession, pool *SharedPool) bool {
	skip := func(why string, args ...any) bool {
		srv.logf("session %s: not recovered: "+why, append([]any{rs.SessionID}, args...)...)
		if j := srv.cfg.Journal; j != nil {
			j.Finish(rs.SessionID)
		}
		return false
	}
	hello := &Frame{
		Type: FrameHello, SessionID: rs.SessionID, Priority: rs.Priority,
		Channels: rs.Channels, Tenant: rs.Tenant, Model: rs.Model,
	}
	// A draining server or an id already active here is a skip too, found
	// by install once the sink is restored. Every skip after the tenant
	// reservation releases it (and the sink, once restored), so none holds
	// a slot until retention expiry.
	// TestRecoverRestoreFailureReleasesReservation pins this.
	tn, quotaReject := srv.tenants.reserve(rs.Tenant)
	if quotaReject != "" {
		return skip("%s", quotaReject)
	}
	sink, err := pool.Restore(hello, rs.State)
	if err != nil {
		srv.tenants.release(tn, false)
		return skip("%v", err)
	}
	s := newSession(srv, hello, sink, tn)
	s.origin = pool
	for i, c := range rs.Committed {
		if i < len(s.reseq) {
			s.reseq[i].SeekTo(c)
			s.committed[i].Store(c)
		}
	}
	if reject := srv.install(s, false); reject != "" {
		return skip("%s", reject)
	}
	metRecovered.Inc()
	srv.logf("session %s: recovered from journal (tenant %q, model %q, committed %v, %d-byte state)",
		s.id, rs.Tenant, rs.Model, rs.Committed, len(rs.State))
	go s.run()
	// Detached from birth: the retention countdown starts now, exactly as if
	// the client's connection had just dropped.
	s.step(event{kind: evDetach})
	return true
}
