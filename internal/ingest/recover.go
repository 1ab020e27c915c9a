package ingest

// Session recovery (DESIGN.md §16, §17). A session's image is the Handoff
// frame that carries its identity, commit points and, when the capture had
// it, detector state. OpenJournal decodes images at boot and a successor
// decodes them off the wire during a drain; Recover installs both.

// Recover installs session images as detached sessions awaiting reconnect
// — same identity, same tenant accounting, same pinned model — so the
// client resumes through the ordinary resume path, indistinguishable from
// a resume after a dropped connection. It returns how many were
// recovered. A session that cannot be restored — its model no longer
// resolves, its tenant quota is exhausted, its id collides — is skipped,
// logged, and marked finished in the journal; the client's reconnect then
// opens a fresh session instead of resuming. Each sink is restored from
// pool, which resolves the image's model version exactly as a live
// admission would. At boot, call it before Serve, with the same Journal
// installed in cfg.Journal.
//
// A session resumes at its image's commit points only when the image
// carries detector state. DWM aligns the observed signal to the reference
// from the start of the print (Section VI), so a fresh detector fed only
// the tail past a commit point would judge a misaligned signal. Without
// state the session starts at sample 0, and the client re-streams the
// print into the fresh detector.
func (srv *Server) Recover(images []*Frame, pool *SharedPool) int {
	recovered := 0
	for _, img := range images {
		if srv.recoverOne(img, pool) {
			recovered++
		}
	}
	return recovered
}

func (srv *Server) recoverOne(img *Frame, pool *SharedPool) bool {
	skip := func(why string, args ...any) bool {
		srv.logf("session %s: not recovered: "+why, append([]any{img.SessionID}, args...)...)
		if j := srv.cfg.Journal; j != nil {
			j.Finish(img.SessionID)
		}
		return false
	}
	// A draining server or an id already active here is a skip too, found
	// by install once the sink is restored. Every skip after the tenant
	// reservation releases it (and the sink, once restored), so none holds
	// a slot until retention expiry.
	// TestRecoverRestoreFailureReleasesReservation pins this.
	tn, quotaReject := srv.tenants.reserve(img.Tenant)
	if quotaReject != "" {
		return skip("%s", quotaReject)
	}
	sink, err := pool.Restore(img, img.Blob)
	if err != nil {
		srv.tenants.release(tn, false)
		return skip("%v", err)
	}
	s := newSession(srv, img, sink, tn)
	s.origin = pool
	if len(img.Blob) > 0 {
		for i, c := range img.Committed {
			if i < len(s.reseq) {
				s.reseq[i].SeekTo(c)
				s.committed[i].Store(c)
			}
		}
	}
	if reject := srv.install(s, false); reject != "" {
		return skip("%s", reject)
	}
	metRecovered.Inc()
	srv.logf("session %s: recovered from journal (tenant %q, model %q, committed %v, %d-byte state)",
		s.id, img.Tenant, img.Model, s.committedSnapshot(), len(img.Blob))
	go s.run()
	// Detached from birth: the retention countdown starts now, exactly as if
	// the client's connection had just dropped.
	s.step(event{kind: evDetach})
	return true
}
