package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// DateLayout is the on-disk date format for CSV files.
const DateLayout = "2006-01-02"

// WriteCSV writes the log as three CSV streams: exam catalog, patient
// registry and records. Any writer may be nil to skip that stream.
func (l *Log) WriteCSV(exams, patients, records io.Writer) error {
	if exams != nil {
		w := csv.NewWriter(exams)
		if err := w.Write([]string{"code", "name", "category"}); err != nil {
			return fmt.Errorf("dataset: writing exam header: %w", err)
		}
		for _, e := range l.Exams {
			if err := w.Write([]string{e.Code, e.Name, e.Category}); err != nil {
				return fmt.Errorf("dataset: writing exam row: %w", err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return fmt.Errorf("dataset: flushing exams: %w", err)
		}
	}
	if patients != nil {
		w := csv.NewWriter(patients)
		if err := w.Write([]string{"id", "age", "profile"}); err != nil {
			return fmt.Errorf("dataset: writing patient header: %w", err)
		}
		for _, p := range l.Patients {
			if err := w.Write([]string{p.ID, strconv.Itoa(p.Age), p.Profile}); err != nil {
				return fmt.Errorf("dataset: writing patient row: %w", err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return fmt.Errorf("dataset: flushing patients: %w", err)
		}
	}
	if records != nil {
		w := csv.NewWriter(records)
		if err := w.Write([]string{"patient_id", "exam_code", "date"}); err != nil {
			return fmt.Errorf("dataset: writing record header: %w", err)
		}
		for _, r := range l.Records {
			if err := w.Write([]string{r.PatientID, r.ExamCode, r.Date.Format(DateLayout)}); err != nil {
				return fmt.Errorf("dataset: writing record row: %w", err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return fmt.Errorf("dataset: flushing records: %w", err)
		}
	}
	return nil
}

// ReadCSV reads a log from the three CSV streams produced by WriteCSV.
func ReadCSV(name string, exams, patients, records io.Reader) (*Log, error) {
	l := NewLog(name)

	er := csv.NewReader(exams)
	rows, err := er.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading exams: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: exams CSV is empty")
	}
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("dataset: exams row %d: want 3 fields, got %d", i+2, len(row))
		}
		if err := l.AddExam(ExamType{Code: row[0], Name: row[1], Category: row[2]}); err != nil {
			return nil, err
		}
	}

	pr := csv.NewReader(patients)
	rows, err = pr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading patients: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: patients CSV is empty")
	}
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("dataset: patients row %d: want 3 fields, got %d", i+2, len(row))
		}
		age, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: patients row %d: bad age %q: %w", i+2, row[1], err)
		}
		if err := l.AddPatient(Patient{ID: row[0], Age: age, Profile: row[2]}); err != nil {
			return nil, err
		}
	}

	rr := csv.NewReader(records)
	rows, err = rr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading records: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: records CSV is empty")
	}
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("dataset: records row %d: want 3 fields, got %d", i+2, len(row))
		}
		d, err := time.Parse(DateLayout, row[2])
		if err != nil {
			return nil, fmt.Errorf("dataset: records row %d: bad date %q: %w", i+2, row[2], err)
		}
		if err := l.AddRecord(Record{PatientID: row[0], ExamCode: row[1], Date: d}); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// SaveCSVFiles writes exams.csv, patients.csv and records.csv under dir.
func (l *Log) SaveCSVFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", dir, err)
	}
	ef, err := os.Create(dir + "/exams.csv")
	if err != nil {
		return err
	}
	defer ef.Close()
	pf, err := os.Create(dir + "/patients.csv")
	if err != nil {
		return err
	}
	defer pf.Close()
	rf, err := os.Create(dir + "/records.csv")
	if err != nil {
		return err
	}
	defer rf.Close()
	return l.WriteCSV(ef, pf, rf)
}

// LoadCSVFiles reads a log previously written by SaveCSVFiles.
func LoadCSVFiles(name, dir string) (*Log, error) {
	ef, err := os.Open(dir + "/exams.csv")
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	pf, err := os.Open(dir + "/patients.csv")
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	rf, err := os.Open(dir + "/records.csv")
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	return ReadCSV(name, ef, pf, rf)
}
