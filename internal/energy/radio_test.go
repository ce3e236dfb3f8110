package energy

import (
	"errors"
	"math"
	"testing"
	"time"

	"eefei/internal/fl"
)

func TestRadioModelValidate(t *testing.T) {
	good := DefaultWiFiRadioModel()
	if err := good.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []RadioModel{
		{UplinkBitsPerSec: 0, DownlinkBitsPerSec: 1e6, TxPowerWatts: 1, RxPowerWatts: 1},
		{UplinkBitsPerSec: 1e6, DownlinkBitsPerSec: -1, TxPowerWatts: 1, RxPowerWatts: 1},
		{UplinkBitsPerSec: 1e6, DownlinkBitsPerSec: 1e6, TxPowerWatts: 0, RxPowerWatts: 1},
		{UplinkBitsPerSec: 1e6, DownlinkBitsPerSec: 1e6, TxPowerWatts: 1, RxPowerWatts: -2},
	}
	for i, rm := range bad {
		if err := rm.Validate(); !errors.Is(err, ErrRadioModel) {
			t.Errorf("case %d: want ErrRadioModel, got %v", i, err)
		}
	}
}

func TestRadioModelEnergyLinearInBytes(t *testing.T) {
	rm := RadioModel{
		UplinkBitsPerSec:   8e6,
		DownlinkBitsPerSec: 4e6,
		TxPowerWatts:       5,
		RxPowerWatts:       4,
	}
	// 1e6 bytes at 8 Mbit/s is exactly 1 s of airtime at 5 W.
	if got := rm.UploadEnergy(1e6); math.Abs(got-5) > 1e-9 {
		t.Errorf("UploadEnergy(1e6) = %v, want 5", got)
	}
	// 1e6 bytes at 4 Mbit/s is 2 s at 4 W.
	if got := rm.DownloadEnergy(1e6); math.Abs(got-8) > 1e-9 {
		t.Errorf("DownloadEnergy(1e6) = %v, want 8", got)
	}
	if got := rm.UploadEnergy(2e6); math.Abs(got-2*rm.UploadEnergy(1e6)) > 1e-9 {
		t.Errorf("upload energy not linear: %v", got)
	}
	for _, b := range []int64{0, -1} {
		if rm.UploadEnergy(b) != 0 || rm.DownloadEnergy(b) != 0 {
			t.Errorf("bytes=%d: want zero energy", b)
		}
	}
	if got, want := rm.UploadTime(1e6), time.Second; got != want {
		t.Errorf("UploadTime(1e6) = %v, want %v", got, want)
	}
	if got, want := rm.DownloadTime(1e6), 2*time.Second; got != want {
		t.Errorf("DownloadTime(1e6) = %v, want %v", got, want)
	}
}

// TestDefaultWiFiRadioModelMatchesPiTimeModel pins the calibration promise of
// DefaultWiFiRadioModel: pricing the canonical ~63 kB model transfer
// reproduces the analytic DefaultPiTimeModel's upload/download durations, so
// byte-priced ledgers agree with analytic ones on the seed protocol.
func TestDefaultWiFiRadioModelMatchesPiTimeModel(t *testing.T) {
	rm := DefaultWiFiRadioModel()
	tm := DefaultPiTimeModel()
	const modelBytes = 63000
	if got, want := rm.UploadTime(modelBytes), tm.Upload; absDur(got-want) > time.Millisecond {
		t.Errorf("UploadTime(%d) = %v, want ~%v", int64(modelBytes), got, want)
	}
	if got, want := rm.DownloadTime(modelBytes), tm.Download; absDur(got-want) > time.Millisecond {
		t.Errorf("DownloadTime(%d) = %v, want ~%v", int64(modelBytes), got, want)
	}
	pm := DefaultPiPowerModel()
	wantUp := pm.Energy(PhaseUpload, tm.Upload)
	if got := rm.UploadEnergy(modelBytes); math.Abs(got-wantUp) > 0.01 {
		t.Errorf("UploadEnergy(%d) = %v, want ~%v (analytic)", int64(modelBytes), got, wantUp)
	}
}

// TestCalibratorRadioPricing checks WithRadioModel swaps the upload/download
// pricing to measured bytes (split across the round's workers) while leaving
// the other phases and byte-less rounds on duration pricing.
func TestCalibratorRadioPricing(t *testing.T) {
	rm := RadioModel{
		UplinkBitsPerSec:   8e6,
		DownlinkBitsPerSec: 8e6,
		TxPowerWatts:       5,
		RxPowerWatts:       4,
	}
	pm := DefaultPiPowerModel()
	cal, err := NewCalibrator(pm, 1, 10, WithRadioModel(rm))
	if err != nil {
		t.Fatal(err)
	}
	s := fl.RoundStats{
		Round:         0,
		Select:        10 * time.Millisecond,
		Train:         20 * time.Millisecond,
		Aggregate:     30 * time.Millisecond, // maps to upload
		Evaluate:      40 * time.Millisecond, // maps to download
		Total:         100 * time.Millisecond,
		Workers:       2,
		UplinkBytes:   4e6, // 2e6 per worker → 2 s airtime at 8 Mbit/s → 10 J
		DownlinkBytes: 2e6, // 1e6 per worker → 1 s at 4 W → 4 J
	}
	cal.ObserveRound(s)
	led := cal.Ledger()
	if got := led.Phase(PhaseUpload); math.Abs(got-10) > 1e-9 {
		t.Errorf("upload = %v J, want 10 (byte-priced)", got)
	}
	if got := led.Phase(PhaseDownload); math.Abs(got-4) > 1e-9 {
		t.Errorf("download = %v J, want 4 (byte-priced)", got)
	}
	if got, want := led.Phase(PhaseTrain), pm.Energy(PhaseTrain, s.Train); math.Abs(got-want) > 1e-9 {
		t.Errorf("train = %v J, want %v (duration-priced)", got, want)
	}

	// A record with no byte telemetry must fall back to duration pricing.
	cal2, err := NewCalibrator(pm, 1, 10, WithRadioModel(rm))
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.UplinkBytes, s2.DownlinkBytes = 0, 0
	cal2.ObserveRound(s2)
	if got, want := cal2.Ledger().Phase(PhaseUpload), pm.Energy(PhaseUpload, s.Aggregate); math.Abs(got-want) > 1e-9 {
		t.Errorf("byte-less upload = %v J, want %v (duration fallback)", got, want)
	}
}

// TestCalibratorPricesAttemptedBytes checks that when a round carries datagram
// attempt counters, the radio phases are priced from attempted bytes — every
// transmission the radio made, retransmissions included — not from the frame
// bytes the application saw. This is the measured side of Eq. 4's ρ/p
// inflation: at success probability p, attempted ≈ delivered/p, and the ledger
// must charge for the attempts.
func TestCalibratorPricesAttemptedBytes(t *testing.T) {
	rm := RadioModel{
		UplinkBitsPerSec:   8e6,
		DownlinkBitsPerSec: 8e6,
		TxPowerWatts:       5,
		RxPowerWatts:       4,
	}
	cal, err := NewCalibrator(DefaultPiPowerModel(), 1, 10, WithRadioModel(rm))
	if err != nil {
		t.Fatal(err)
	}
	s := fl.RoundStats{
		Round:     0,
		Aggregate: 30 * time.Millisecond, // maps to upload
		Evaluate:  40 * time.Millisecond, // maps to download
		Total:     70 * time.Millisecond,
		Workers:   2,
		// Frame bytes as delivered by the transport...
		UplinkBytes:   4e6,
		DownlinkBytes: 2e6,
		// ...but the radio attempted twice as many (p = 0.5): these must win.
		DgramBytes: fl.DgramBytes{
			UplinkAttemptBytes:   8e6, // 4e6 per worker → 4 s at 5 W → 20 J
			DownlinkAttemptBytes: 4e6, // 2e6 per worker → 2 s at 4 W → 8 J
		},
	}
	cal.ObserveRound(s)
	led := cal.Ledger()
	if got := led.Phase(PhaseUpload); math.Abs(got-20) > 1e-9 {
		t.Errorf("upload = %v J, want 20 (attempted-byte-priced)", got)
	}
	if got := led.Phase(PhaseDownload); math.Abs(got-8) > 1e-9 {
		t.Errorf("download = %v J, want 8 (attempted-byte-priced)", got)
	}
}

func TestNewCalibratorRejectsBadRadioModel(t *testing.T) {
	_, err := NewCalibrator(DefaultPiPowerModel(), 1, 10,
		WithRadioModel(RadioModel{}))
	if !errors.Is(err, ErrRadioModel) {
		t.Fatalf("want ErrRadioModel, got %v", err)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
