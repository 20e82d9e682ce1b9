package replica

import "sync/atomic"

// Role is a node's position in the replication pair.
type Role int32

const (
	// RolePrimary accepts registrations and reports and ships its WAL.
	RolePrimary Role = iota
	// RoleStandby replays the primary's stream and refuses client
	// writes (clients are redirected via peer advertisements).
	RoleStandby
	// RoleFenced is a deposed primary: a higher epoch exists somewhere,
	// so this node refuses writes forever (restart required).
	RoleFenced
)

// String implements fmt.Stringer for logs and stats.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	case RoleFenced:
		return "fenced"
	}
	return "unknown"
}

// RoleState is the node's role as an atomic state machine. Legal
// transitions: Standby→Primary (Promote) and any→Fenced (Fence); a
// fenced node never serves writes again.
type RoleState struct {
	v atomic.Int32
}

// NewRoleState starts the machine in r.
func NewRoleState(r Role) *RoleState {
	rs := &RoleState{}
	rs.v.Store(int32(r))
	return rs
}

// Get returns the current role.
func (rs *RoleState) Get() Role { return Role(rs.v.Load()) }

// Promote moves Standby→Primary; reports whether the transition
// happened (false when already primary or fenced).
func (rs *RoleState) Promote() bool {
	return rs.v.CompareAndSwap(int32(RoleStandby), int32(RolePrimary))
}

// Fence moves any non-fenced role to Fenced; reports whether this call
// did it.
func (rs *RoleState) Fence() bool {
	for {
		cur := rs.v.Load()
		if cur == int32(RoleFenced) {
			return false
		}
		if rs.v.CompareAndSwap(cur, int32(RoleFenced)) {
			return true
		}
	}
}
