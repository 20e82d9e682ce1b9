// Hot-standby replication wiring: the primary ships its durable record
// stream to followers (internal/replica.Shipper over the WAL store),
// a standby tails that stream and replays every record through the
// same paths boot-time recovery uses, and a fencing epoch — journaled,
// shipped, and presented in every replication handshake — keeps a
// deposed primary from accepting writes after its follower promoted.
//
// Role state gates client writes (see writeGate): a primary admits
// them and pushes its peer list, a standby refuses them with a
// redirect at the primary, a fenced node refuses them with a redirect
// at whoever deposed it. Clients built on proto.ReconnectClient adopt
// pushed peer lists and fail over without operator involvement.
package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"mpn/internal/durable"
	"mpn/internal/replica"
)

// initReplication starts the shipper and/or tailer per config. Called
// once from newServer after the coordinator exists; returns an error
// only for a bad config or a dead replication listener.
func (s *server) initReplication(cfg serverConfig, restored *durable.State) error {
	s.advertise = cfg.advertise
	s.standbyOf = cfg.standbyOf
	s.promoteAfter = cfg.promoteAfter
	s.replStop = make(chan struct{})
	role := replica.RolePrimary
	if cfg.standbyOf != "" {
		role = replica.RoleStandby
	}
	s.role = replica.NewRoleState(role)
	if restored != nil {
		s.epoch.Store(restored.Epoch)
	}
	if cfg.replicateTo == "" && cfg.standbyOf == "" {
		return nil
	}
	s.coord.SetWriteGate(s.writeGate)

	if cfg.replicateTo != "" {
		if s.store == nil {
			return errors.New("-replicate-to requires -state-dir: the replication stream is the durable record log")
		}
		if role == replica.RolePrimary && s.epoch.Load() == 0 {
			// A replicating primary always holds a concrete epoch so a
			// promoted follower can fence it by presenting a higher one.
			s.epoch.Store(1)
			s.store.EpochRecord(1)
		}
		s.ship = replica.NewShipper(replica.ShipperConfig{
			Store:     s.store,
			Epoch:     s.epoch.Load,
			Advertise: cfg.advertise,
			OnFenced:  s.onFenced,
		})
		ln, err := net.Listen("tcp", cfg.replicateTo)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		s.shipLn = ln
		go s.ship.Serve(ln)
		s.logger.Printf("replication: shipping WAL to followers on %s", ln.Addr())
	}

	if cfg.standbyOf != "" {
		var initial *durable.State
		if restored != nil {
			initial = restored.Clone()
		}
		s.tail = replica.StartTailer(replica.TailerConfig{
			PrimaryAddr:  cfg.standbyOf,
			Advertise:    cfg.advertise,
			Epoch:        s.epoch.Load,
			OnRecord:     s.applyReplicated,
			Initial:      initial,
			RetryBackoff: cfg.replRetry,
			AckInterval:  cfg.replAck,
		})
		s.logger.Printf("replication: standby of %s (client writes refused until promotion)", cfg.standbyOf)
		if cfg.promoteAfter > 0 {
			go s.autoPromote()
		}
	}
	return nil
}

// stopRepl tears the replication plumbing down; safe to call more
// than once and with replication off.
func (s *server) stopRepl() {
	s.replOnce.Do(func() {
		if s.replStop != nil {
			close(s.replStop)
		}
		if s.tail != nil {
			s.tail.Stop()
		}
		if s.ship != nil {
			s.ship.Close()
		}
	})
}

// writeGate is the coordinator's write-admission hook: only a primary
// admits registrations and reports; everyone else refuses with a peer
// list redirecting the client at the node that can.
func (s *server) writeGate() (peers []string, epoch uint64, err error) {
	switch s.role.Get() {
	case replica.RolePrimary:
		if s.advertise != "" {
			peers = append(peers, s.advertise)
		}
		if s.ship != nil {
			peers = append(peers, s.ship.FollowerAddrs()...)
		}
		return peers, s.epoch.Load(), nil
	case replica.RoleStandby:
		if s.tail != nil {
			if a := s.tail.PrimaryAdvertise(); a != "" {
				peers = append(peers, a)
			}
		}
		if s.advertise != "" {
			peers = append(peers, s.advertise)
		}
		return peers, s.epoch.Load(), errors.New("standby: not accepting writes, use the primary")
	default: // RoleFenced
		if p, _ := s.fencedPeer.Load().(string); p != "" {
			peers = append(peers, p)
		}
		epoch = s.epoch.Load()
		if f := s.fencedEpoch.Load(); f > epoch {
			epoch = f
		}
		return peers, epoch, errors.New("fenced: a newer primary exists")
	}
}

// onFenced runs when a replication handshake presents an epoch above
// ours: this node has been deposed and must refuse writes from now on,
// redirecting clients at the fencer.
func (s *server) onFenced(epoch uint64, advertise string) {
	s.fencedEpoch.Store(epoch)
	if advertise != "" {
		s.fencedPeer.Store(advertise)
	}
	if s.role.Fence() {
		s.logger.Printf("replication: fenced by epoch %d (new primary %q); refusing writes", epoch, advertise)
	}
}

// promote lifts a standby to primary: stop following, adopt a fencing
// epoch above everything seen, journal it, flip the role, and
// best-effort fence the old primary so it refuses writes even if it
// comes back from the dead. Reports whether a promotion happened.
func (s *server) promote() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.role.Get() != replica.RoleStandby {
		return false
	}
	epoch := s.epoch.Load()
	if s.tail != nil {
		// Stop() waits the tail loop out, so no replicated record can
		// land after the epoch bump below.
		s.tail.Stop()
		if pe := s.tail.PrimaryEpoch(); pe > epoch {
			epoch = pe
		}
	}
	epoch++
	s.epoch.Store(epoch)
	if s.store != nil {
		s.store.EpochRecord(epoch)
	}
	s.role.Promote()
	s.logger.Printf("replication: promoted to primary at epoch %d", epoch)
	if s.standbyOf != "" {
		go func(addr string, e uint64, adv string) {
			if err := replica.Fence(addr, e, adv, 2*time.Second); err != nil {
				s.logger.Printf("replication: fencing old primary %s: %v", addr, err)
			}
		}(s.standbyOf, epoch, s.advertise)
	}
	return true
}

// autoPromote watches the tail's liveness and promotes after the
// primary has been unreachable for promoteAfter. A fatal tail error
// (fenced or diverged) disables auto-promotion: a node that cannot
// prove it converged must not claim the primary role.
func (s *server) autoPromote() {
	tick := s.promoteAfter / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	lastLive := time.Now()
	for {
		select {
		case <-s.replStop:
			return
		case <-t.C:
		}
		if s.role.Get() != replica.RoleStandby {
			return
		}
		if s.tail.Err() != nil {
			s.logger.Printf("replication: auto-promotion disabled: %v", s.tail.Err())
			return
		}
		if s.tail.Stats().Connected {
			lastLive = time.Now()
			continue
		}
		if time.Since(lastLive) >= s.promoteAfter {
			s.promote()
			return
		}
	}
}

// applyReplicated replays one replicated record into the serving
// stack, strictly in stream order on the tailer goroutine. It reuses
// exactly the paths boot-time recovery uses — ApplyPOIs for POI
// batches, RegisterTag/SubmitTag for group state — and the engine's
// journal hook re-journals each application locally, so a promoted
// standby's own durable state is as authoritative as the primary's
// was. An error return is fatal to the tail (ErrDiverged): replay can
// no longer converge.
func (s *server) applyReplicated(rec durable.Record) error {
	switch rec.Type {
	case durable.RecEpoch:
		s.adoptEpoch(rec.Epoch)
		return nil
	case durable.RecMeta:
		if rec.POIBase != s.poiBase {
			return fmt.Errorf("primary POI base %d, ours %d (different -n/-seed/-pois boot)", rec.POIBase, s.poiBase)
		}
		return nil
	case durable.RecPOIs:
		// The planner's OnMutate hook journals the applied batch under
		// our own WAL; version alignment is checked inside ApplyPOIs, and
		// a net server refuses the batch (core.ErrFixedPOIs).
		_, err := s.planner.ApplyPOIs(rec.Inserts, rec.Deletes)
		return err
	case durable.RecUnreg:
		// Releases the engine group; the engine's GroupRemoved hook
		// journals the unregistration under our own WAL.
		s.onGroupEmpty(rec.GID)
		return nil
	case durable.RecGroup:
		return s.applyReplGroup(rec)
	}
	return fmt.Errorf("unknown replicated record type %d", rec.Type)
}

// adoptEpoch raises the node's fencing epoch to e (never lowers it)
// and journals the adoption.
func (s *server) adoptEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			if s.store != nil {
				s.store.EpochRecord(e)
			}
			return
		}
	}
}

// applyReplGroup routes a replicated group record like a client report
// (routeGroup): first sight registers (synchronous plan, so the standby
// is warm), a shape change retires the stale engine group first, and
// later records are ordinary submissions.
func (s *server) applyReplGroup(rec durable.Record) error {
	if _, _, err := s.routeGroup(rec.GID, rec.IDs, rec.Locs); err != nil {
		return fmt.Errorf("replicated group %d: %w", rec.GID, err)
	}
	return nil
}

// replAddr returns the replication listener's bound address ("" when
// not shipping) — tests listen on :0 and need the port.
func (s *server) replAddr() string {
	if s.shipLn == nil {
		return ""
	}
	return s.shipLn.Addr().String()
}
