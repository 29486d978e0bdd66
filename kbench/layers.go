package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"time"

	"kshot/internal/binmatch"
	"kshot/internal/callgraph"
	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
)

// The layer walk. The layers beneath core are reachable from a System
// only through its private fields, so the walk rebuilds each op shape
// a workload drives on a rig made from the layers' public
// constructors, and times each layer's call on its own: the hello and
// fetch of the patch server, the enclave load and its three ECALLs,
// the key exchange and channel crypto, staging and the SMI, a memory
// fork and guest-buffer reads, a pause of a running vCPU, and the
// build walk over the workload's own CVEs.

// walkReps is how many times each timed call repeats; figures are
// medians over the repeats.
const walkReps = 15

// walkCVEs returns the CVEs a workload patches.
func walkCVEs(workload string) []*cvebench.Entry {
	switch workload {
	case "fleet_rollout":
		return cvebench.FigureSix()[:fleetCVEs]
	case "patch_churn":
		return cvebench.ConflictFreeWaves(cvebench.All())[0]
	}
	return cvebench.FigureSix()
}

// timeIt returns the median duration of reps calls of fn, in the given
// unit (1e6 for µs), stopping at the first error.
func timeIt(reps int, unit float64, fn func() error) (float64, error) {
	return timeSpans(reps, unit, func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	})
}

// timeSpans is timeIt for calls that need untimed preparation: fn
// reports the duration of its timed part itself.
func timeSpans(reps int, unit float64, fn func() (time.Duration, error)) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds) * unit, nil
}

func walkLayers(ctx context.Context, workload string) (map[string]float64, error) {
	entries := walkCVEs(workload)
	out := map[string]float64{}
	srv, err := newServer(entries)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	opts := core.Options{Version: "4.4", NumVCPUs: 1, ExtraFiles: extraFiles(entries), ServerAddr: srv.Addr()}
	tpl, err := core.NewTemplate(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer tpl.Close()
	sys, err := core.NewSystemCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	// Patch server: attested hello, then fetches of the workload's CVEs.
	info := tpl.Info()
	meas := sgx.MeasureIdentity(sgxprep.Identity(info.Version))
	attKey := make([]byte, 32)
	if _, err := rand.Read(attKey); err != nil {
		return nil, err
	}
	var serverKey []byte
	var client *patchserver.Client
	defer func() {
		if client != nil {
			_ = client.Close()
		}
	}()
	if out["patchserver.hello_us"], err = timeSpans(walkReps, 1e6, func() (time.Duration, error) {
		c, err := patchserver.DialContext(ctx, srv.Addr())
		if err != nil {
			return 0, err
		}
		start := time.Now()
		k, err := c.HelloWithAttestation(info, meas, attKey)
		d := time.Since(start)
		if err != nil {
			_ = c.Close()
			return 0, err
		}
		if client != nil {
			_ = client.Close()
		}
		client, serverKey = c, k
		return d, nil
	}); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	blobs := make([][]byte, len(entries))
	var fetchUS []float64
	var fetched int
	for i, e := range entries {
		d, err := timeIt(5, 1e6, func() error {
			b, err := client.FetchPatch(ctx, e.CVE)
			blobs[i] = b
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", e.CVE, err)
		}
		fetchUS = append(fetchUS, d)
		fetched += len(blobs[i])
	}
	out["patchserver.fetch_us"] = median(fetchUS)
	out["patchserver.bytes_per_fetch"] = float64(fetched) / float64(len(entries))
	if out["patchserver.build_ms"], err = coldBuildMS(info, entries); err != nil {
		return nil, err
	}

	// Enclave: load, then the three preparation ECALLs against the
	// rig System's SMM key and cursors.
	prog, err := sgxprep.New(sgxprep.Config{
		ServerKey:     serverKey,
		KernelVersion: info.Version,
		KernelSymbols: sys.Kernel.Symbols().All(),
		Placement:     sys.Handler.Placement(),
		HashAlg:       kcrypto.HashSHA256,
		Model:         timing.Calibrated(),
	})
	if err != nil {
		return nil, err
	}
	var enclave *sgx.Enclave
	if out["sgx.load_us"], err = timeSpans(walkReps, 1e6, func() (time.Duration, error) {
		if enclave != nil {
			enclave.Destroy()
		}
		start := time.Now()
		p, err := sgx.NewPlatform(mem.New(kernel.EPCBase+kernel.EPCSize), kernel.EPCBase, kernel.EPCSize)
		if err != nil {
			return 0, err
		}
		enclave, err = p.Load(prog, sgxprep.EnclavePages)
		return time.Since(start), err
	}); err != nil {
		return nil, fmt.Errorf("enclave load: %w", err)
	}
	smmPub, err := smmpatch.ReadSMMPub(sys.Machine.Mem, mem.PrivUser, sys.Kernel.Res)
	if err != nil {
		return nil, err
	}
	memX, data := sys.Handler.Cursors()
	var pkg []byte
	var prepUS, rbUS []float64
	for i, e := range entries {
		args, err := sgxprep.EncodeArgs(sgxprep.PrepareArgs{ServerBlob: blobs[i], SMMPub: smmPub, MemXCursor: memX, DataCursor: data})
		if err != nil {
			return nil, err
		}
		d, err := timeIt(5, 1e6, func() error {
			res, err := enclave.ECall(sgxprep.FnPrepare, args)
			pkg = res
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", e.CVE, err)
		}
		prepUS = append(prepUS, d)
		rbArgs, err := sgxprep.EncodeArgs(sgxprep.RollbackArgs{ID: e.CVE, SMMPub: smmPub})
		if err != nil {
			return nil, err
		}
		if d, err = timeIt(5, 1e6, func() error {
			_, err := enclave.ECall(sgxprep.FnPrepareRollback, rbArgs)
			return err
		}); err != nil {
			return nil, fmt.Errorf("prepare rollback %s: %w", e.CVE, err)
		}
		rbUS = append(rbUS, d)
	}
	out["sgxprep.prepare_us"] = median(prepUS)
	out["sgxprep.prepare_rollback_us"] = median(rbUS)
	batch := blobs
	if len(batch) > smmpatch.MaxBatchMembers {
		batch = batch[:smmpatch.MaxBatchMembers]
	}
	manyArgs, err := sgxprep.EncodeArgs(sgxprep.BatchPrepareArgs{ServerBlobs: batch, SMMPub: smmPub, MemXCursor: memX, DataCursor: data})
	if err != nil {
		return nil, err
	}
	if out["sgxprep.prepare_many_us"], err = timeIt(5, 1e6, func() error {
		_, err := enclave.ECall(sgxprep.FnPrepareBatch, manyArgs)
		return err
	}); err != nil {
		return nil, fmt.Errorf("prepare many: %w", err)
	}
	res, err := sgxprep.DecodeResult(pkg)
	if err != nil {
		return nil, err
	}

	// kcrypto at the fetched sizes: one side of the DH exchange, then
	// sealing and opening a blob.
	peer, err := kcrypto.GenerateKeyPair(rand.Reader)
	if err != nil {
		return nil, err
	}
	if out["kcrypto.dh_us"], err = timeIt(walkReps, 1e6, func() error {
		kp, err := kcrypto.GenerateKeyPair(rand.Reader)
		if err != nil {
			return err
		}
		_, err = kp.SharedSecret(peer.PublicBytes())
		return err
	}); err != nil {
		return nil, fmt.Errorf("dh: %w", err)
	}
	sess, err := kcrypto.NewSession(serverKey, rand.Reader)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, fetched/len(entries))
	var sealed []byte
	if out["kcrypto.seal_us"], err = timeIt(walkReps, 1e6, func() error {
		sealed, err = sess.Encrypt(plain)
		return err
	}); err != nil {
		return nil, err
	}
	if out["kcrypto.open_us"], err = timeIt(walkReps, 1e6, func() error {
		_, err := sess.Decrypt(sealed)
		return err
	}); err != nil {
		return nil, err
	}

	// SMM: staging a prepared package, and a bare SMI round trip.
	if out["smmpatch.stage_us"], err = timeIt(walkReps, 1e6, func() error {
		return smmpatch.StageBlob(sys.Machine.Mem, mem.PrivUser, smmpatch.PackageAddr(sys.Kernel.Res), res.Ciphertext)
	}); err != nil {
		return nil, fmt.Errorf("stage: %w", err)
	}
	if out["smm.trigger_us"], err = timeIt(walkReps, 1e6, func() error {
		return sys.SMM.Trigger(smmpatch.CmdIntrospect, 0)
	}); err != nil {
		return nil, fmt.Errorf("trigger: %w", err)
	}

	// Memory: a COW fork of the template, and guest-buffer reads.
	if out["mem.fork_us"], err = timeIt(walkReps, 1e6, func() error {
		tpl.Machine().Mem.Fork()
		return nil
	}); err != nil {
		return nil, err
	}
	if out["mem.read_ns"], err = readNS(sys); err != nil {
		return nil, err
	}
	if out["machine.pause_us"], err = pauseUS(sys); err != nil {
		return nil, err
	}
	if err := buildWalk(entries, out); err != nil {
		return nil, err
	}
	return out, nil
}

// coldBuildMS is the mean time a fresh server takes to build one
// encrypted patch blob.
func coldBuildMS(info patchserver.OSInfo, entries []*cvebench.Entry) (float64, error) {
	srv, err := newServer(entries)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	key := make([]byte, 32)
	sess, err := kcrypto.NewSession(key, rand.Reader)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, e := range entries {
		if _, err := srv.BuildPatchBlob(info, e.CVE, sess); err != nil {
			return 0, fmt.Errorf("build %s: %w", e.CVE, err)
		}
	}
	return time.Since(start).Seconds() * 1e3 / float64(len(entries)), nil
}

// readNS is the mean cost of one ReadU64 across a guest-sized buffer.
func readNS(sys *core.System) (float64, error) {
	const words, passes = 512, 200
	base := uint64(kernel.HeapBase + guestBufOff)
	ns, err := timeIt(5, 1e9, func() error {
		for p := 0; p < passes; p++ {
			for i := uint64(0); i < words; i++ {
				if _, err := sys.Machine.Mem.ReadU64(mem.PrivKernel, base+8*i); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return ns / (words * passes), err
}

// pauseUS times Pause+Resume while a guest loop keeps vCPU 0 busy.
func pauseUS(sys *core.System) (float64, error) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := sys.Kernel.Call(0, "sys_checksum", kernel.HeapBase+guestBufOff, 512); err != nil {
				done <- err
				return
			}
		}
	}()
	d, _ := timeSpans(walkReps*4, 1e6, func() (time.Duration, error) {
		time.Sleep(200 * time.Microsecond)
		start := time.Now()
		sys.Machine.Pause()
		sys.Machine.Resume()
		return time.Since(start), nil
	})
	close(stop)
	return d, <-done
}

// buildWalk times the server-side build path over the workload's CVEs:
// the kernel build, its call graphs, and per CVE the binary diff and
// patch.Build.
func buildWalk(entries []*cvebench.Entry, out map[string]float64) error {
	tree, err := cvebench.TreeProviderFor(entries...)("4.4")
	if err != nil {
		return err
	}
	var img *isa.Image
	var unit *isa.Unit
	if out["kernel.build_ms"], err = timeIt(3, 1e3, func() error {
		img, unit, err = tree.Build()
		return err
	}); err != nil {
		return fmt.Errorf("kernel build: %w", err)
	}
	if out["callgraph.build_ms"], err = timeIt(3, 1e3, func() error {
		callgraph.FromSource(unit)
		_, err := callgraph.FromBinary(img)
		return err
	}); err != nil {
		return fmt.Errorf("callgraph: %w", err)
	}
	var diffMS, patchMS []float64
	for _, e := range entries {
		post := tree.Clone()
		if err := post.Apply(e.SourcePatch()); err != nil {
			return err
		}
		postImg, postUnit, err := post.Build()
		if err != nil {
			return err
		}
		d, err := timeIt(1, 1e3, func() error {
			_, err := binmatch.DiffImages(img, postImg)
			return err
		})
		if err != nil {
			return fmt.Errorf("diff %s: %w", e.CVE, err)
		}
		diffMS = append(diffMS, d)
		if d, err = timeIt(1, 1e3, func() error {
			_, err := patch.Build(e.CVE, "4.4", patch.ImagePair{Img: img, Unit: unit}, patch.ImagePair{Img: postImg, Unit: postUnit})
			return err
		}); err != nil {
			return fmt.Errorf("patch build %s: %w", e.CVE, err)
		}
		patchMS = append(patchMS, d)
	}
	out["binmatch.diff_ms"] = median(diffMS)
	out["patch.build_ms"] = median(patchMS)
	return nil
}
