package main

import (
	"bufio"
	"io"
	"log"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/proto"
)

// handoffServer starts a one-shard, one-worker circle server.
func handoffServer(t *testing.T) *server {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max", alpha: 5, buffer: 10,
		shards: 1, workers: 1,
		logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// holdFirst is a failpoint rule that blocks its first hit until release
// closes.
func holdFirst(release <-chan struct{}) faultinject.Rule {
	return func(hit uint64) faultinject.Effect {
		if hit == 1 {
			<-release
		}
		return faultinject.Effect{}
	}
}

// waitFor polls cond every millisecond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestEveryCommitReachesDeliver forms 1,100 single-member groups on a
// one-shard, one-worker server: each first plan is queued, none is
// returned inline, and all 1,100 reach Deliver. It then holds the first
// delivery at the coordinator while every group reports once. Every
// report waits in the shard's run queue, however long it grows, and every
// one is committed and reaches Deliver.
func TestEveryCommitReachesDeliver(t *testing.T) {
	srv := handoffServer(t)
	defer srv.close()
	const groups = 1100
	at := func(gid uint32, step int) []geom.Point {
		return []geom.Point{geom.Pt(float64(gid)/groups, 0.2+0.3*float64(step))}
	}
	faultinject.Arm(faultinject.Script{}) // counts the deliveries
	defer faultinject.Disarm()
	for gid := uint32(1); gid <= groups; gid++ {
		if _, _, _, inline := srv.submit(gid, []uint32{1}, at(gid, 0)); inline {
			t.Fatalf("group %d was planned inline", gid)
		}
	}
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.CoordDeliver) == groups }) {
		t.Fatalf("%d of %d first plans reached Deliver", faultinject.Hits(faultinject.CoordDeliver), groups)
	}
	release := make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.CoordDeliver: holdFirst(release)})
	srv.submit(1, []uint32{1}, at(1, 1))
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.CoordDeliver) == 1 }) {
		t.Fatal("the first report's plan never reached Deliver")
	}
	for gid := uint32(2); gid <= groups; gid++ {
		srv.submit(gid, []uint32{1}, at(gid, 1))
	}
	queued := srv.eng.Counters().Queued
	close(release)
	srv.close() // drains the queue; every commit is delivered before it returns
	if queued != groups-1 {
		t.Fatalf("%d reports queued behind the held delivery, want %d", queued, groups-1)
	}

	c := srv.eng.Counters()
	var plans uint64
	for _, n := range c.Plans {
		plans += n
	}
	committed := plans - groups // minus the first plans
	delivered := faultinject.Hits(faultinject.CoordDeliver)
	t.Logf("%d reports: %d committed, %d delivered", groups, committed, delivered)
	if committed != groups {
		t.Fatalf("%d of %d reports committed", committed, groups)
	}
	if delivered != committed {
		t.Fatalf("%d of %d committed plans reached Deliver", delivered, committed)
	}
}

// TestStalledShardAnswersAtOnce stalls the worker of a one-shard server
// inside a plan. Reports to the stalled shard return at once: their
// reader holds the coordinator lock, which the worker needs to deliver,
// and a ping from another group is answered meanwhile. After the release
// the queued reports are planned and delivered with no second report.
func TestStalledShardAnswersAtOnce(t *testing.T) {
	srv := handoffServer(t)
	defer srv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.serve(ln) }()

	// a's plan stalls the worker, b's and c's reports queue behind it and
	// d pings.
	users := make([]*e2eUser, 4)
	for i := range users {
		users[i] = dialUser(t, ln.Addr().String(), uint32(i+1), 0, geom.Pt(0.2+0.2*float64(i), 0.2))
		if err := users[i].client.Register(1); err != nil {
			t.Fatal(err)
		}
		users[i].waitNotify(t)
	}
	a, b, c, d := users[0], users[1], users[2], users[3]
	report := func(u *e2eUser, p geom.Point) {
		t.Helper()
		u.setLoc(p)
		if err := u.client.Report(); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: holdFirst(release)})
	defer faultinject.Disarm()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	moved := []geom.Point{geom.Pt(0.2, 0.8), geom.Pt(0.4, 0.8), geom.Pt(0.6, 0.8)}
	report(a, moved[0])
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.EnginePlan) == 1 }) {
		t.Fatal("a's report never reached the worker")
	}
	const limit = 500 * time.Millisecond
	report(b, moved[1])
	report(c, moved[2])
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.EngineSubmit) == 3 }) {
		t.Fatal("b's and c's reports never reached the engine")
	}
	// c's reader may still be inside the engine's submit, under the
	// coordinator lock; d's pong needs that lock.
	if err := proto.Write(d.conn, proto.Message{Type: proto.TPing, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if !waitFor(limit, func() bool { return d.client.Pongs() == 1 }) {
		t.Fatalf("a ping waited over %v behind reports to a stalled shard", limit)
	}
	if q := srv.eng.Counters().Queued; q != 2 {
		t.Fatalf("%d reports queued behind the stalled plan, want b's and c's", q)
	}

	close(release)
	released = true
	for i, u := range []*e2eUser{a, b, c} {
		u.waitNotify(t)
		if !u.client.Region().Contains(moved[i]) {
			t.Fatalf("the region planned for report %d does not contain %v", i, moved[i])
		}
	}
}

// TestFormingGroupAnswersAtOnce stalls the worker of a one-shard server
// in the first plan of a forming group. Every member's ping, the one who
// completed the group included, and a ping from another group's member
// are answered at once: no read loop runs the plan or waits for it, and
// none holds the coordinator lock meanwhile. After the release every
// member of the new group gets her first notification.
func TestFormingGroupAnswersAtOnce(t *testing.T) {
	srv := handoffServer(t)
	defer srv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.serve(ln) }()
	addr := ln.Addr().String()

	other := dialUser(t, addr, 2, 1, geom.Pt(0.5, 0.5))
	if err := other.client.Register(1); err != nil {
		t.Fatal(err)
	}
	other.waitNotify(t)
	release := make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.EnginePlan: holdFirst(release)})
	defer faultinject.Disarm()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	members := make([]*e2eUser, 3)
	for i := range members {
		members[i] = dialUser(t, addr, 1, uint32(i), geom.Pt(0.2+0.1*float64(i), 0.3))
		if err := members[i].client.Register(uint32(len(members))); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.EnginePlan) == 1 }) {
		t.Fatal("the group's first plan never started")
	}
	pinged := append([]*e2eUser{other}, members...)
	for _, u := range pinged {
		if err := proto.Write(u.conn, proto.Message{Type: proto.TPing, Epoch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const limit = 500 * time.Millisecond
	for i, u := range pinged {
		if !waitFor(limit, func() bool { return u.client.Pongs() == 1 }) {
			t.Fatalf("user %d: no pong within %v while a group's first plan ran", i, limit)
		}
	}

	close(release)
	released = true
	for _, u := range members {
		u.waitNotify(t)
	}
}

// TestCleanStopOnSIGTERM runs the built binary with a state directory,
// registers a group and moves it once, and sends SIGTERM: the process
// exits 0 after printing the counters line with both plans, and a restart
// on the same directory recovers the group.
func TestCleanStopOnSIGTERM(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mpnserver")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stateDir := filepath.Join(dir, "state")

	addr, stop := startBinary(t, bin, stateDir)
	u := dialUser(t, addr, 7, 0, geom.Pt(0.2, 0.2))
	if err := u.client.Register(1); err != nil {
		t.Fatal(err)
	}
	u.waitNotify(t)
	u.setLoc(geom.Pt(0.8, 0.8))
	if err := u.client.Report(); err != nil {
		t.Fatal(err)
	}
	u.waitNotify(t)
	logs := stop()
	if !regexp.MustCompile(`served 1 conns .* plans full=2 .*; ship seeds=0 cuts=0\n`).MatchString(logs) {
		t.Fatalf("no counters line with the group's two plans after SIGTERM:\n%s", logs)
	}

	_, stop = startBinary(t, bin, stateDir)
	if logs := stop(); !strings.Contains(logs, "restored 1/1 durable groups") {
		t.Fatalf("the restart did not recover the group:\n%s", logs)
	}
}

// startBinary starts the server binary on a free loopback port with a
// state directory and returns its address once it serves. stop sends
// SIGTERM, fails the test unless the process exits 0 within ten seconds,
// and returns everything it logged.
func startBinary(t *testing.T, bin, stateDir string) (addr string, stop func() string) {
	t.Helper()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-method", "circle", "-n", "500",
		"-state-dir", stateDir, "-fsync", "interval")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	addrc := make(chan string, 1)
	done := make(chan struct{})
	serving := regexp.MustCompile(` on (\S+) \(`)
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logs.WriteString(sc.Text() + "\n")
			if m := serving.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
	}()
	select {
	case addr = <-addrc:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		_ = cmd.Wait()
		t.Fatalf("the server never logged its address:\n%s", logs.String())
	}
	return addr, func() string {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() {
			<-done // Wait closes the pipe: read it to the end first
			exited <- cmd.Wait()
		}()
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("the server did not exit 0 after SIGTERM: %v\n%s", err, logs.String())
			}
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("the server did not exit within 10s of SIGTERM:\n%s", logs.String())
		}
		return logs.String()
	}
}
