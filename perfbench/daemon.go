package main

// The daemon under test: a real streamschedd process on a loopback port.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamsched/internal/service"
)

type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches streamschedd and waits until /readyz answers 200.
// conns bounds the client's connections to the daemon.
func startDaemon(bin string, traced bool, conns int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launch(bin, traced, conns)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin string, traced bool, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-trace="+strconv.FormatBool(traced), "-cache", strconv.Itoa(cacheEntries))
	cmd.Stdout = io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var stderr bytes.Buffer
	if traced {
		cmd.Stderr = io.Discard // one request log line per request
	} else {
		cmd.Stderr = &stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		base:   "http://" + addr,
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("streamschedd exited during start: %s", strings.TrimSpace(stderr.String()))
		default:
		}
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("streamschedd not ready after 20s")
		}
		time.Sleep(time.Millisecond)
	}
}

// requestTimeout bounds one request; a request that exceeds it failed.
const requestTimeout = 30 * time.Second

// warmConns opens the client's keep-alive connections, so the timed
// phases do not pay TCP set-up.
func (d *daemon) warmConns(conns int) {
	done := make(chan struct{}, conns)
	for i := 0; i < conns; i++ {
		go func() {
			if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < conns; i++ {
		<-done
	}
}

// metrics reads the daemon's /metrics document.
func (d *daemon) metrics() (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 10s.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}
