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

	"mpn/internal/engine"
	"mpn/internal/faultinject"
	"mpn/internal/geom"
	"mpn/internal/proto"
)

// handoffServer starts a one-shard, one-worker circle server with the
// given queue depth (0 = the engine default).
func handoffServer(t *testing.T, queue int) *server {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	pois := make([]geom.Point, 300)
	for i := range pois {
		pois[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	srv, err := newServer(serverConfig{
		pois: pois, method: "circle", agg: "max", alpha: 5, buffer: 10,
		shards: 1, workers: 1, queue: queue,
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

// TestEveryCommitReachesDeliver holds the first delivery of a one-shard,
// one-worker server at the coordinator while more single-member groups
// than the shard queue holds report once. No committed plan is lost on
// the way to the coordinator: every commit past registration reaches
// Deliver, and every report was either committed or shed and counted.
func TestEveryCommitReachesDeliver(t *testing.T) {
	const depth = 1024 // the engine's default, and the old fan-out channel's size
	srv := handoffServer(t, depth)
	defer srv.close()
	const groups = depth + 76
	at := func(gid uint32, step int) []geom.Point {
		return []geom.Point{geom.Pt(float64(gid)/groups, 0.2+0.3*float64(step))}
	}
	for gid := uint32(1); gid <= groups; gid++ {
		if _, _, _, registered := srv.submit(gid, []uint32{1}, at(gid, 0)); !registered {
			t.Fatalf("group %d did not register", gid)
		}
	}
	release := make(chan struct{})
	faultinject.Arm(faultinject.Script{faultinject.CoordDeliver: holdFirst(release)})
	defer faultinject.Disarm()
	srv.submit(1, []uint32{1}, at(1, 1))
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.CoordDeliver) == 1 }) {
		t.Fatal("the first report's plan never reached Deliver")
	}
	for gid := uint32(2); gid <= groups; gid++ {
		srv.submit(gid, []uint32{1}, at(gid, 1))
	}
	// Keep the hold until the shard settles: its queue is full behind the
	// held delivery, or empty because the worker went on committing.
	if !waitFor(10*time.Second, func() bool { q := srv.eng.Counters().Queued; return q == 0 || q == depth }) {
		t.Fatal("the shard queue never settled")
	}
	close(release)
	srv.close() // drains the queue; every commit is delivered before it returns

	c := srv.eng.Counters()
	var plans uint64
	for _, n := range c.Plans {
		plans += n
	}
	committed := plans - groups // minus the registrations
	delivered := faultinject.Hits(faultinject.CoordDeliver)
	t.Logf("%d reports: %d committed, %d delivered, %d shed", groups, committed, delivered, c.Shed)
	if delivered != committed {
		t.Fatalf("%d of %d committed plans reached Deliver", delivered, committed)
	}
	if committed+c.Shed != groups {
		t.Fatalf("%d committed + %d shed, want all %d reports accounted for", committed, c.Shed, groups)
	}
	if c.Shed == 0 {
		t.Fatal("the held worker never filled the queue")
	}
}

// TestFullQueueShedsAtOnce stalls the worker of a one-shard, depth-1
// server and fills its queue. A report to the full shard is shed and
// counted at once: its reader holds the coordinator lock, which the
// worker needs to deliver, so it must not wait for queue space, and a
// ping from another group is answered meanwhile. The shed group's next
// report is planned and delivered.
func TestFullQueueShedsAtOnce(t *testing.T) {
	srv := handoffServer(t, 1)
	defer srv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.serve(ln) }()

	// a's plan stalls the worker, b's report fills the queue, c's is shed
	// and d pings.
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

	report(a, geom.Pt(0.2, 0.8))
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.EnginePlan) == 1 }) {
		t.Fatal("a's report never reached the worker")
	}
	report(b, geom.Pt(0.4, 0.8))
	if !waitFor(10*time.Second, func() bool { return srv.eng.Counters().Queued == 1 }) {
		t.Fatal("b's report never filled the queue")
	}
	start := time.Now()
	report(c, geom.Pt(0.6, 0.8))
	// c's reader is inside the engine's submit, under the coordinator lock.
	if !waitFor(10*time.Second, func() bool { return faultinject.Hits(faultinject.EngineSubmit) == 3 }) {
		t.Fatal("c's report never reached the engine")
	}
	if err := proto.Write(d.conn, proto.Message{Type: proto.TPing, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	limit := engine.DefaultAdmissionWait / 2
	if !waitFor(limit, func() bool { return d.client.Pongs() == 1 }) {
		t.Fatalf("a ping waited over %v behind a report to a full shard", limit)
	}
	if !waitFor(limit-time.Since(start), func() bool { return srv.eng.Counters().Shed == 1 }) {
		t.Fatalf("a report to a full shard was not shed within %v (shed=%d)", limit, srv.eng.Counters().Shed)
	}

	close(release)
	released = true
	a.waitNotify(t)
	b.waitNotify(t)
	final := geom.Pt(0.6, 0.5)
	report(c, final)
	c.waitNotify(t)
	if !c.client.Region().Contains(final) {
		t.Fatalf("c's region after her next report does not contain %v", final)
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
	if !regexp.MustCompile(`served 1 conns .* plans full=2 `).MatchString(logs) {
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
